package specs

// Table-driven symmetry contract over the whole spec matrix at N <= 4:
// declared groups match the registry, and for every symmetric spec the
// canonical fingerprint is invariant under every valid process permutation
// of every sampled reachable state (the satellite contract behind the
// model checker's symmetry-reduced visited store).

import (
	"math/rand"
	"slices"
	"testing"

	"bakerypp/internal/gcl"
)

// sampleStates walks the reachable states breadth-first (exact dedup via
// fingerprint + Equal) and returns up to limit of them.
func sampleStates(p *gcl.Prog, limit int) []gcl.State {
	seen := map[uint64][]gcl.State{}
	dup := func(s gcl.State) bool {
		for _, t := range seen[s.Fingerprint()] {
			if t.Equal(s) {
				return true
			}
		}
		return false
	}
	states := []gcl.State{p.InitState()}
	seen[states[0].Fingerprint()] = states[:1]
	for head := 0; head < len(states) && len(states) < limit; head++ {
		for _, sc := range p.AllSuccs(states[head], gcl.ModeUnbounded) {
			if dup(sc.State) {
				continue
			}
			fp := sc.State.Fingerprint()
			seen[fp] = append(seen[fp], sc.State)
			states = append(states, sc.State)
			if len(states) >= limit {
				break
			}
		}
	}
	return states
}

// permutations of 0..n-1, brute force.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			perm := make([]int, 0, n)
			perm = append(perm, sub[:pos]...)
			perm = append(perm, n-1)
			perm = append(perm, sub[pos:]...)
			out = append(out, perm)
		}
	}
	return out
}

func TestDeclaredSymmetry(t *testing.T) {
	// The expected group per spec — a tripwire so a new or edited spec
	// states its symmetry deliberately (see the Symmetric doc comment for
	// why black-white and peterson opt out).
	want := map[string]bool{
		"bakery":     true,
		"bakerypp":   true,
		"modbakery":  true,
		"szymanski":  true,
		"blackwhite": false,
		"peterson":   false,
	}
	for _, name := range Names() {
		wantFull, known := want[name]
		if !known {
			t.Errorf("%s: new spec not classified in the symmetry expectation table", name)
			continue
		}
		if got := Symmetric(name); got != wantFull {
			t.Errorf("Symmetric(%q) = %v, want %v", name, got, wantFull)
		}
		p, err := Get(name, Config{N: 3, M: 2})
		if err != nil {
			t.Fatal(err)
		}
		if wantFull && !p.CanCanonicalize() {
			t.Errorf("%s: symmetric spec cannot canonicalize at N=3", name)
		}
	}
}

// symBuilds are the symmetric specs and their variants, by process count.
var symBuilds = []struct {
	name string
	mk   func(n int) *gcl.Prog
}{
	{"bakery", func(n int) *gcl.Prog { return Bakery(Config{N: n, M: 2}) }},
	{"bakery-fine", func(n int) *gcl.Prog { return Bakery(Config{N: n, M: 2, Fine: true}) }},
	{"bakerypp", func(n int) *gcl.Prog { return BakeryPP(Config{N: n, M: 2}) }},
	{"bakerypp-fine", func(n int) *gcl.Prog { return BakeryPP(Config{N: n, M: 2, Fine: true}) }},
	{"bakerypp-safe", func(n int) *gcl.Prog { return BakeryPPSafe(n, 2) }},
	{"modbakery", func(n int) *gcl.Prog { return ModBakery(n, 2) }},
	{"szymanski", Szymanski},
}

// TestCanonicalFingerprintInvariance sweeps every symmetric spec at
// N in {2, 3, 4}: for each sampled reachable state and every permutation
// valid for its normalized form, the canonical fingerprint must not
// change, and the witnessing permutation must map the normalized state
// onto the canonical form.
func TestCanonicalFingerprintInvariance(t *testing.T) {
	for _, b := range symBuilds {
		for _, n := range []int{2, 3, 4} {
			p := b.mk(n)
			if !p.CanCanonicalize() {
				t.Fatalf("%s N=%d: expected canonicalization support", b.name, n)
			}
			perms := permutations(n)
			limit := 400
			if n == 4 {
				limit = 150 // 24 perms per state; keep the sweep quick
			}
			for _, s := range sampleStates(p, limit) {
				want := p.CanonicalFingerprint(s)
				norm := p.NormalizeCursors(s)
				for _, perm := range perms {
					if !p.PermValid(norm, perm) {
						continue
					}
					img := p.Permute(norm, perm)
					if got := p.CanonicalFingerprint(img); got != want {
						t.Fatalf("%s N=%d: canonical fingerprint varies under perm %v of state %s",
							b.name, n, perm, p.Format(s))
					}
				}
				canon, perm := canonWithWitness(p.NewCanonicalizer(), s)
				if !p.Permute(norm, perm).Equal(canon) {
					t.Fatalf("%s N=%d: witnessing permutation does not reproduce the canonical form", b.name, n)
				}
			}
		}
	}
}

// TestCanonicalizeAgainstOracle checks the column sort against brute
// force on every symmetric spec at N=4 and N=5: for sampled reachable
// states (breadth-first near the initial state, plus a random walk for
// deep mid-scan states) and pin sets {}, {0}, {N-1}, {0,N-1}, the
// canonical image must be the least valid image over the whole
// permutation table, and the unpinned witness must be the
// lexicographically first permutation reaching it.
func TestCanonicalizeAgainstOracle(t *testing.T) {
	for _, b := range symBuilds {
		for _, n := range []int{4, 5} {
			p := b.mk(n)
			c := p.NewCanonicalizer()
			states := sampleStates(p, 150)
			rng := rand.New(rand.NewSource(int64(n)))
			s := p.InitState()
			for step := 0; step < 300; step++ {
				succs := p.AllSuccs(s, gcl.ModeUnbounded)
				s = succs[rng.Intn(len(succs))].State
				states = append(states, s)
			}
			for _, s := range states {
				for _, pinned := range [][]int{nil, {0}, {n - 1}, {0, n - 1}} {
					best, witness := oracleCanon(p, s, pinned)
					if got := p.NewPinnedCanonicalizer(pinned).Canonicalize(s); !got.Equal(best) {
						t.Fatalf("%s N=%d pinned %v: canonical of %s is %v, want %v",
							b.name, n, pinned, p.Format(s), got, best)
					}
					if pinned != nil {
						continue
					}
					got, perm := canonWithWitness(c, s)
					if !got.Equal(best) || !p.Canonicalize(s).Equal(best) {
						t.Fatalf("%s N=%d: canonical of %s is %v, want %v", b.name, n, p.Format(s), got, best)
					}
					if !slices.Equal(perm, witness) {
						t.Fatalf("%s N=%d: witness of %s is %v, want %v", b.name, n, p.Format(s), perm, witness)
					}
				}
			}
		}
	}
}

// canonWithWitness canonicalizes s through c's batch path and returns the
// key with its witness permutation: process q moves to slot perm[q].
func canonWithWitness(c *gcl.Canonicalizer, s gcl.State) (gcl.State, []int) {
	var ks gcl.KeySlab
	base := c.CanonicalizeBatch([]gcl.Succ{{State: s}}, &ks)
	var perm []int
	for _, b := range ks.Witness(base) {
		perm = append(perm, int(b))
	}
	return ks.Key(base), perm
}

// oracleCanon returns the least image of the normalized state over the
// permutations of 0..N-1 that are valid for it and fix every pinned pid,
// and the lexicographically first permutation that reaches it.
func oracleCanon(p *gcl.Prog, s gcl.State, pinned []int) (gcl.State, []int) {
	norm := p.NormalizeCursors(s)
	var best gcl.State
	var witness []int
next:
	for _, perm := range permutations(p.N) {
		for _, pid := range pinned {
			if perm[pid] != pid {
				continue next
			}
		}
		if !p.PermValid(norm, perm) {
			continue
		}
		img := p.Permute(norm, perm)
		if best == nil || lexLess(img, best) || (img.Equal(best) && slices.Compare(perm, witness) < 0) {
			best, witness = img, perm
		}
	}
	return best, witness
}

func lexLess(a, b gcl.State) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestAsymmetricSpecsDoNotCanonicalize pins the opt-outs: the declared
// NoSymmetry specs must refuse canonicalization so the checker falls back
// to the full search.
func TestAsymmetricSpecsDoNotCanonicalize(t *testing.T) {
	for _, p := range []*gcl.Prog{BlackWhite(3), Peterson(3)} {
		if p.CanCanonicalize() {
			t.Errorf("%s: declared-asymmetric spec must not canonicalize", p.Name)
		}
	}
}
