package gcl

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// symProg builds an n-process fully-symmetric toy program: each process
// raises its flag, scans the others with cursor c (live only at the scan
// labels), then lowers the flag. It exercises owned arrays, a
// perm-invariant shared scalar, a plain local, and a scan cursor.
func symProg(n int) *Prog {
	p := New("symtoy", n)
	p.SharedArray("flag", n, 0)
	p.SharedVar("round", 0)
	p.Own("flag")
	p.LocalVar("c", 0)
	p.LocalVar("v", 0)
	p.SetSymmetry(FullSymmetry)
	p.PidLocal("c", "s1", "s2")
	c := L("c")
	p.Label("ncs", Goto("up"))
	p.Label("up", Goto("s1", SetSelf("flag", C(1)), SetL("c", C(0))))
	p.Label("s1",
		Br(Ge(c, C(n)), "down"),
		Br(Lt(c, C(n)), "s2"),
	)
	p.Label("s2", Goto("s1",
		SetL("v", Add(L("v"), ShI("flag", c))),
		SetL("c", Add(c, C(1))),
	))
	p.Label("down", Goto("ncs", SetSelf("flag", C(0)), SetL("v", C(0)), Set("round", C(1))))
	return p.MustBuild()
}

// flagProg is symProg without the cursor: pure column symmetry, so the
// sorted fast path is always taken.
func flagProg(n int) *Prog {
	p := New("flagtoy", n)
	p.SharedArray("flag", n, 0)
	p.Own("flag")
	p.SetSymmetry(FullSymmetry)
	p.Label("ncs", Goto("up"))
	p.Label("up", Goto("down", SetSelf("flag", C(1))))
	p.Label("down", Goto("ncs", SetSelf("flag", C(0))))
	return p.MustBuild()
}

// walkStates returns up to limit distinct states of p reached by a
// breadth-first walk from the initial state.
func walkStates(p *Prog, limit int) []State {
	seen := map[uint64][]State{}
	lookup := func(s State) bool {
		for _, t := range seen[s.Fingerprint()] {
			if t.Equal(s) {
				return true
			}
		}
		return false
	}
	init := p.InitState()
	states := []State{init}
	seen[init.Fingerprint()] = []State{init}
	for head := 0; head < len(states) && len(states) < limit; head++ {
		for _, sc := range p.AllSuccs(states[head], ModeUnbounded) {
			if lookup(sc.State) {
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

func composePerm(a, b []int) []int {
	// (b ∘ a): apply a, then b.
	out := make([]int, len(a))
	for i := range a {
		out[i] = b[a[i]]
	}
	return out
}

func TestPermuteGroupAction(t *testing.T) {
	p := symProg(3)
	id := []int{0, 1, 2}
	a := []int{1, 2, 0}
	b := []int{2, 1, 0}
	for _, s := range walkStates(p, 200) {
		if !p.Permute(s, id).Equal(s) {
			t.Fatalf("identity permutation changed state %v", s)
		}
		lhs := p.Permute(p.Permute(s, a), b)
		rhs := p.Permute(s, composePerm(a, b))
		if !lhs.Equal(rhs) {
			t.Fatalf("permutation action does not compose: %v vs %v", lhs, rhs)
		}
	}
}

// oracleCanon is the brute-force reference for canonicalization: the
// lexicographically least image of the normalized state over every
// permutation in the table that is valid for it and fixes the pinned pids,
// and the lexicographically first permutation reaching that image.
func oracleCanon(p *Prog, perms [][]int, s State, pinned []int) (State, []int) {
	norm := p.NormalizeCursors(s)
	var best State
	var witness []int
next:
	for _, perm := range perms {
		for _, pid := range pinned {
			if perm[pid] != pid {
				continue next
			}
		}
		if !p.PermValid(norm, perm) {
			continue
		}
		if img := p.Permute(norm, perm); best == nil || lexLess(img, best) {
			best, witness = img, perm
		}
	}
	return best, witness
}

// canonWithWitness canonicalizes s through a fresh canonicalizer and
// returns copies of the key and of the lexicographically first permutation
// mapping the normalized state onto it.
func canonWithWitness(p *Prog, s State) (State, []int) {
	w := newCanonicalizer(p)
	return slices.Clone(w.canonicalize(s)), slices.Clone(w.bestPerm)
}

// allPerms returns every permutation of 0..n-1, identity first, then in
// lexicographic order.
func allPerms(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var perms [][]int
	for {
		perms = append(perms, slices.Clone(cur))
		i := n - 2
		for i >= 0 && cur[i] >= cur[i+1] {
			i--
		}
		if i < 0 {
			return perms
		}
		j := n - 1
		for cur[j] <= cur[i] {
			j--
		}
		cur[i], cur[j] = cur[j], cur[i]
		slices.Reverse(cur[i+1:])
	}
}

// TestCanonicalizeAgainstOracle cross-checks canonicalization against the
// brute-force oracle in both image and witness: unpinned on toy programs
// with and without a scan cursor at N=3, and pinned (whose witness is
// internal) on the cursor program at N=4 and N=5.
func TestCanonicalizeAgainstOracle(t *testing.T) {
	perms3 := allPerms(3)
	for _, tc := range []struct {
		name string
		p    *Prog
	}{
		{"cursor-prog", symProg(3)},
		{"sorted-fast-path", flagProg(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			for _, s := range walkStates(p, 400) {
				best, witness := oracleCanon(p, perms3, s, nil)
				got, perm := canonWithWitness(p, s)
				if !got.Equal(best) {
					t.Fatalf("canonical of %v:\n got %v\nwant %v", s, got, best)
				}
				if !slices.Equal(perm, witness) {
					t.Fatalf("witness of %v: got %v, want %v", s, perm, witness)
				}
				if !p.Canonicalize(s).Equal(best) || got.Fingerprint() != p.CanonicalFingerprint(s) {
					t.Fatal("Canonicalize/CanonicalFingerprint disagree with the witnessed canonicalization")
				}
			}
		})
	}
	for _, n := range []int{4, 5} {
		p := symProg(n)
		perms := allPerms(n)
		c := p.NewCanonicalizer()
		for _, s := range walkStates(p, 300) {
			for _, pinned := range [][]int{nil, {0}, {n - 1}, {0, n - 1}} {
				best, witness := oracleCanon(p, perms, s, pinned)
				got := c.CanonicalizePinned(s, pinned)
				if !got.Equal(best) {
					t.Fatalf("N=%d pinned %v canonical of %v:\n got %v\nwant %v", n, pinned, s, got, best)
				}
				if !slices.Equal(c.w.bestPerm, witness) {
					t.Fatalf("N=%d pinned %v witness of %v: got %v, want %v", n, pinned, s, c.w.bestPerm, witness)
				}
			}
		}
	}
}

// TestCompareColumnsExtremes pins the comparator on words 2^31 or more
// apart, where a subtracting comparison wraps.
func TestCompareColumnsExtremes(t *testing.T) {
	p := flagProg(2)
	s := p.InitState()
	p.SetShared(s, "flag", 0, math.MaxInt32)
	p.SetShared(s, "flag", 1, math.MinInt32)
	if c := compareColumns(p, s, 0, 1); c <= 0 {
		t.Fatalf("compareColumns(MaxInt32, MinInt32) = %d, want > 0", c)
	}
	if c := compareColumns(p, s, 1, 0); c >= 0 {
		t.Fatalf("compareColumns(MinInt32, MaxInt32) = %d, want < 0", c)
	}
	canon := p.Canonicalize(s)
	if p.Shared(canon, "flag", 0) != math.MinInt32 || p.Shared(canon, "flag", 1) != math.MaxInt32 {
		t.Fatalf("canonical form does not sort extreme columns: %v", canon)
	}
}

// TestCanonicalizeBeyondPermTable runs the cursor program at N=10, past
// the permutation table's cap: the canonical fingerprint is invariant
// under random permutations within the cursor segments, and the witness
// is valid and reproduces the key.
func TestCanonicalizeBeyondPermTable(t *testing.T) {
	const n = 10
	p := symProg(n)
	if !p.CanCanonicalize() || p.CanTrackPerms() {
		t.Fatalf("N=%d cursor program: CanCanonicalize=%v CanTrackPerms=%v, want true/false",
			n, p.CanCanonicalize(), p.CanTrackPerms())
	}
	rng := rand.New(rand.NewSource(1))
	s := p.InitState()
	active := 0
	for step := 0; step < 3000; step++ {
		succs := p.AllSuccs(s, ModeUnbounded)
		s = succs[rng.Intn(len(succs))].State
		norm := p.NormalizeCursors(s)
		if activeCursors(p, norm) != 0 {
			active++
		}
		want := p.CanonicalFingerprint(s)
		perm := randomSegmentPerm(p, norm, rng)
		if !p.PermValid(norm, perm) {
			t.Fatalf("segment permutation %v invalid for %v", perm, norm)
		}
		if got := p.CanonicalFingerprint(p.Permute(norm, perm)); got != want {
			t.Fatalf("canonical fingerprint varies under %v at %v", perm, s)
		}
		canon, witness := canonWithWitness(p, s)
		if !p.PermValid(norm, witness) || !p.Permute(norm, witness).Equal(canon) {
			t.Fatalf("witness %v invalid or does not reproduce the key at %v", witness, s)
		}
	}
	if active == 0 {
		t.Fatal("walk never reached a mid-scan state")
	}
}

// activeCursors is the canonicalizer's active-cursor mask of s.
func activeCursors(p *Prog, s State) uint32 {
	return (&canonicalizer{p: p}).cursorMask(s)
}

// randomSegmentPerm draws a uniformly random permutation mapping every
// segment cut out by the active cursors of s onto itself.
func randomSegmentPerm(p *Prog, s State, rng *rand.Rand) []int {
	mask := activeCursors(p, s)
	perm := make([]int, p.N)
	for lo := 0; lo < p.N; {
		hi := lo + 1
		for hi < p.N && mask&(1<<uint(hi)) == 0 {
			hi++
		}
		for i, v := range rng.Perm(hi - lo) {
			perm[lo+i] = lo + v
		}
		lo = hi
	}
	return perm
}

func lexLess(a, b State) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestCanonicalInvariantUnderValidPerms is the core contract: the
// canonical fingerprint does not change when a state is replaced by any
// valid permutation image of it, and canonicalization is idempotent.
func TestCanonicalInvariantUnderValidPerms(t *testing.T) {
	p := symProg(3)
	perms3 := allPerms(3)
	for _, s := range walkStates(p, 400) {
		want := p.CanonicalFingerprint(s)
		norm := p.NormalizeCursors(s)
		for _, perm := range perms3 {
			if !p.PermValid(norm, perm) {
				continue
			}
			if got := p.CanonicalFingerprint(p.Permute(norm, perm)); got != want {
				t.Fatalf("canonical fingerprint varies over the orbit of %v (perm %v)", s, perm)
			}
		}
		canon, perm := canonWithWitness(p, s)
		if !p.Permute(norm, perm).Equal(canon) {
			t.Fatalf("witnessing permutation %v does not map the normalized state onto the canonical form", perm)
		}
		if !p.PermValid(norm, perm) {
			t.Fatalf("witnessing permutation %v is not valid for %v", perm, norm)
		}
		if !p.Canonicalize(canon).Equal(canon) {
			t.Fatalf("canonicalization not idempotent on %v", canon)
		}
	}
}

// TestCursorNormalization pins the dead-variable rule: the cursor is
// zeroed in keys while the process is outside its scan loop and kept
// while inside.
func TestCursorNormalization(t *testing.T) {
	p := symProg(2)
	s := p.InitState()
	p.SetLocal(s, 0, "c", 2)
	p.SetPC(s, 0, p.LabelIndex("ncs")) // dead: c rewritten at "up"
	norm := p.NormalizeCursors(s)
	if got := p.Local(norm, 0, "c"); got != 0 {
		t.Fatalf("dead cursor survived normalization: %d", got)
	}
	p.SetPC(s, 0, p.LabelIndex("s1")) // live
	norm = p.NormalizeCursors(s)
	if got := p.Local(norm, 0, "c"); got != 2 {
		t.Fatalf("live cursor normalized away: %d", got)
	}
	// The plain local v is untouched either way.
	p.SetLocal(s, 0, "v", 5)
	if got := p.Local(p.NormalizeCursors(s), 0, "v"); got != 5 {
		t.Fatalf("non-cursor local normalized: %d", got)
	}
}

// TestPermValidSegments pins the prefix-preservation rule on a concrete
// mid-scan state.
func TestPermValidSegments(t *testing.T) {
	p := symProg(3)
	s := p.InitState()
	p.SetPC(s, 0, p.LabelIndex("s1"))
	p.SetLocal(s, 0, "c", 2) // process 0 has scanned {0, 1}
	cases := []struct {
		perm []int
		ok   bool
	}{
		{[]int{0, 1, 2}, true},
		{[]int{1, 0, 2}, true},  // permutes within the scanned prefix
		{[]int{0, 2, 1}, false}, // moves scanned pid 1 out of the prefix
		{[]int{2, 1, 0}, false},
	}
	for _, c := range cases {
		if got := p.PermValid(s, c.perm); got != c.ok {
			t.Fatalf("PermValid(%v) = %v, want %v", c.perm, got, c.ok)
		}
	}
}

// TestSymmetryBuildValidation pins the declaration errors.
func TestSymmetryBuildValidation(t *testing.T) {
	bad := New("bad-cursor", 2)
	bad.SharedArray("a", 2, 0)
	bad.Own("a")
	bad.PidLocal("nope")
	bad.Label("ncs", Goto("ncs"))
	if err := bad.Build(); err == nil {
		t.Fatal("undeclared cursor local accepted")
	}
	badLive := New("bad-live", 2)
	badLive.SharedArray("a", 2, 0)
	badLive.Own("a")
	badLive.LocalVar("c", 0)
	badLive.PidLocal("c", "nowhere")
	badLive.Label("ncs", Goto("ncs"))
	if err := badLive.Build(); err == nil {
		t.Fatal("unknown live-at label accepted")
	}
	badArr := New("bad-arr", 3)
	badArr.SharedArray("a", 2, 0)
	badArr.PidIndexed("a")
	badArr.Label("ncs", Goto("ncs"))
	if err := badArr.Build(); err == nil {
		t.Fatal("pid-indexed array of wrong size accepted")
	}
	noSym := flagProg(2)
	if noSym.CanCanonicalize() != true {
		t.Fatal("symmetric program must canonicalize")
	}
	plain := New("plain", 2)
	plain.SharedArray("a", 2, 0)
	plain.Own("a")
	plain.Label("ncs", Goto("ncs"))
	plain.MustBuild()
	if plain.CanCanonicalize() {
		t.Fatal("NoSymmetry program must not canonicalize")
	}
}

// FuzzCanonicalFingerprint drives a random walk of the toy cursor program
// from fuzzed bytes and asserts the satellite contract on every visited
// state: the canonical fingerprint is invariant under every valid process
// permutation, and the canonical form is stable (idempotent, equal
// fingerprints from both APIs).
func FuzzCanonicalFingerprint(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 9, 1, 0, 4, 2, 250, 17, 3})
	p := symProg(3)
	perms3 := allPerms(3)
	f.Fuzz(func(t *testing.T, choices []byte) {
		s := p.InitState()
		for _, b := range choices {
			succs := p.AllSuccs(s, ModeUnbounded)
			if len(succs) == 0 {
				break
			}
			s = succs[int(b)%len(succs)].State
			want := p.CanonicalFingerprint(s)
			norm := p.NormalizeCursors(s)
			for _, perm := range perms3 {
				if !p.PermValid(norm, perm) {
					continue
				}
				if got := p.CanonicalFingerprint(p.Permute(norm, perm)); got != want {
					t.Fatalf("canonical fingerprint not orbit-invariant at %v under %v", s, perm)
				}
			}
			canon := p.Canonicalize(s)
			if !p.Canonicalize(canon).Equal(canon) {
				t.Fatalf("canonicalization not idempotent at %v", s)
			}
		}
	})
}
