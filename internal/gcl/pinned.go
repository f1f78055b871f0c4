package gcl

// Pinned canonicalization, the key of the FCFS monitor product's visited
// store: canonicalize only the pids the property does NOT distinguish. It
// is the segment sort of canonicalization (symmetry.go) with the pinned
// slots left out, so it needs no permutation table.

import "fmt"

// CanTrackPerms reports whether the program supports pinned
// canonicalization: full symmetry declared and at most maxEnumProcs
// processes. It is the gate of every pinned reduction plan; it is stricter
// than CanCanonicalize only for cursor-free programs with more than
// maxEnumProcs processes.
func (p *Prog) CanTrackPerms() bool {
	return p.built && p.sym == FullSymmetry && p.N <= maxEnumProcs
}

func (p *Prog) mustTrackPerms() {
	if !p.CanTrackPerms() {
		panic(fmt.Sprintf("gcl: %s: pinned canonicalization unavailable (symmetry %v, N=%d)", p.Name, p.sym, p.N))
	}
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
