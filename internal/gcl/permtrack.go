package gcl

// Permutation-tracking support for the model checker's quotient-graph
// liveness analyses. The symmetry-aware visited store (internal/mc) keys
// states on canonical orbit representatives; to reason about CYCLES on the
// quotient — starvation, global no-progress — the checker additionally
// needs the witnessing permutations as first-class values it can compose
// along quotient edges. This file exposes the program's permutation table
// by index (lexicographic order, identity at index 0) together with
// ranking, inversion, and composition, plus the pinned variant of
// canonicalization that the FCFS monitor product uses (canonicalize only
// the pids the property does NOT distinguish).
//
// All indices refer to the lexicographic enumeration of the full symmetric
// group on 0..N-1. Only the index functions need the table itself
// (canonicalization sorts columns and ranks its witness by Lehmer code);
// it is materialised lazily on first use and capped at maxEnumProcs
// processes (8! = 40320 permutations).

import "fmt"

// ensurePerms materialises the permutation tables (idempotent), including
// the inverse-index table so InvPermIndex — on the quotient graph
// builder's per-edge path — is a lookup rather than a Lehmer ranking.
func (p *Prog) ensurePerms() {
	p.permsOnce.Do(func() {
		p.perms, p.invPerms = allPerms(p.N)
		p.invIdx = make([]int32, len(p.perms))
		for i := range p.perms {
			p.invIdx[i] = int32(p.PermIndexOf(p.invPerms[i]))
		}
	})
}

// CanTrackPerms reports whether the program supports permutation-indexed
// symmetry bookkeeping: full symmetry declared and few enough processes to
// materialise the permutation table. This is the precondition for the
// model checker's quotient-graph liveness analyses and for pinned
// canonicalization; it is stricter than CanCanonicalize only for
// cursor-free programs with more than maxEnumProcs processes.
func (p *Prog) CanTrackPerms() bool {
	return p.built && p.sym == FullSymmetry && p.N <= maxEnumProcs
}

// NumPerms returns the size of the permutation table (N!).
func (p *Prog) NumPerms() int {
	p.mustTrackPerms()
	p.ensurePerms()
	return len(p.perms)
}

// PermAt returns the permutation with the given lexicographic index
// (index 0 is the identity). The returned slice is shared and must be
// treated as read-only.
func (p *Prog) PermAt(i int) []int {
	p.mustTrackPerms()
	p.ensurePerms()
	return p.perms[i]
}

// InvPermAt returns the inverse of the permutation at index i, read-only.
func (p *Prog) InvPermAt(i int) []int {
	p.mustTrackPerms()
	p.ensurePerms()
	return p.invPerms[i]
}

// PermIndexOf returns the lexicographic index of perm via its Lehmer code;
// no table access is needed, so it also ranks the witnesses returned by
// canonicalization.
func (p *Prog) PermIndexOf(perm []int) int {
	if len(perm) != p.N {
		panic(fmt.Sprintf("gcl: %s: PermIndexOf needs a permutation of %d ids, got %d", p.Name, p.N, len(perm)))
	}
	rank := 0
	for i := 0; i < len(perm); i++ {
		smaller := 0
		for j := i + 1; j < len(perm); j++ {
			if perm[j] < perm[i] {
				smaller++
			}
		}
		rank += smaller * factorial(len(perm)-1-i)
	}
	return rank
}

// InvPermIndex returns the index of the inverse of the permutation at
// index i (a table lookup).
func (p *Prog) InvPermIndex(i int) int {
	p.mustTrackPerms()
	p.ensurePerms()
	return int(p.invIdx[i])
}

// ComposePermIndex returns the index of the composition a∘b, the
// permutation mapping i to perms[a][perms[b][i]] — b applied first. This
// is the quotient-edge update rule: following an edge annotated ρ from a
// product node tracked by τ lands on the node tracked by τ∘ρ.
func (p *Prog) ComposePermIndex(a, b int) int {
	p.mustTrackPerms()
	p.ensurePerms()
	pa, pb := p.perms[a], p.perms[b]
	var buf [maxEnumProcs]int
	c := buf[:p.N]
	for i := 0; i < p.N; i++ {
		c[i] = pa[pb[i]]
	}
	return p.PermIndexOf(c)
}

// PermFixes reports whether perm maps s onto itself — membership in s's
// stabilizer — without materialising the image: every pid-indexed cell and
// per-process block is compared against its relocation target, with early
// exit on the first mismatch. The model checker's quotient product uses
// stabilizers to canonicalize its tracking-permutation keys.
func (p *Prog) PermFixes(s State, perm []int) bool {
	if len(perm) != p.N {
		panic(fmt.Sprintf("gcl: %s: PermFixes needs a permutation of %d ids, got %d", p.Name, p.N, len(perm)))
	}
	for _, off := range p.pidArrayOffs {
		for i := 0; i < p.N; i++ {
			if s[off+perm[i]] != s[off+i] {
				return false
			}
		}
	}
	for i := 0; i < p.N; i++ {
		if perm[i] == i {
			continue
		}
		src := p.sharedLen + i*p.localLen
		dst := p.sharedLen + perm[i]*p.localLen
		for k := 0; k < p.localLen; k++ {
			if s[dst+k] != s[src+k] {
				return false
			}
		}
	}
	return true
}

func (p *Prog) mustTrackPerms() {
	if !p.CanTrackPerms() {
		panic(fmt.Sprintf("gcl: %s: permutation tracking unavailable (symmetry %v, N=%d)", p.Name, p.sym, p.N))
	}
}

func factorial(k int) int {
	f := 1
	for i := 2; i <= k; i++ {
		f *= i
	}
	return f
}

// pinnedMaskOf folds a pid list into the bitmask of slots pinned
// canonicalization leaves in place, validating the pids.
func (p *Prog) pinnedMaskOf(pinned []int) uint32 {
	var mask uint32
	for _, pid := range pinned {
		if pid < 0 || pid >= p.N {
			panic(fmt.Sprintf("gcl: %s: pinned pid %d out of range [0,%d)", p.Name, pid, p.N))
		}
		mask |= 1 << uint(pid)
	}
	return mask
}

// CanonicalizePinned returns the least valid image of the cursor-normalized
// state over the permutations that FIX every pid in pinned (and, as always,
// respect the scan-cursor prefixes). Two states canonicalize-pinned equally
// iff their normalized forms are images of one another under such a
// permutation, so the result keys visited stores for properties that
// distinguish the pinned pids but are symmetric in all others — the FCFS
// monitor product pins its (first, second) pair and lets the remaining
// processes collapse. The pinned pids' per-process blocks and pid-indexed
// cells stay in place: the segment sort skips their slots. Requires
// CanTrackPerms, the gate of every pinned reduction plan; freshly
// allocated, safe for concurrent use.
func (p *Prog) CanonicalizePinned(s State, pinned []int) State {
	p.mustTrackPerms()
	mask := p.pinnedMaskOf(pinned)
	w := p.canonWorker()
	defer p.canonPool.Put(w)
	out := make(State, p.StateLen())
	w.canonicalizeInto(out, nil, s, mask)
	return out
}
