package gcl

import (
	"testing"
)

// permProg builds a small fully-symmetric program with a pid-indexed array
// and a scan cursor, the bakery-family shape pinned canonicalization serves.
func permProg(t *testing.T, n int) *Prog {
	t.Helper()
	p := New("pinned", n)
	p.SharedArray("number", n, 0)
	p.Own("number")
	p.LocalVar("j", 0)
	p.SetSymmetry(FullSymmetry)
	p.PidLocal("j", "scan")
	p.Label("ncs", Goto("scan", SetL("j", C(0))))
	p.Label("scan",
		Br(Lt(L("j"), C(n)), "scan", SetL("j", Add(L("j"), C(1)))),
		Br(Ge(L("j"), C(n)), "bump"),
	)
	p.Label("bump", Goto("ncs", SetSelf("number", Add(ShSelf("number"), C(1)))))
	p.MustBuild()
	return p
}

// Pinned canonicalization is invariant under valid permutations that fix
// the pinned pids, and leaves the pinned pids' columns in place.
func TestCanonicalizePinned(t *testing.T) {
	p := permProg(t, 4)
	s := p.InitState()
	p.SetShared(s, "number", 0, 3)
	p.SetShared(s, "number", 1, 1)
	p.SetShared(s, "number", 2, 2)
	p.SetShared(s, "number", 3, 1)
	pinned := []int{1}

	base := p.CanonicalizePinned(s, pinned)
	if got := p.Shared(base, "number", 1); got != 1 {
		t.Fatalf("pinned pid's cell moved: number[1] = %d, want 1", got)
	}
	// Every permutation fixing pid 1 (no cursors active here, so all are
	// prefix-valid) must canonicalize to the same representative.
	for _, perm := range allPerms(p.N) {
		if perm[1] != 1 {
			continue
		}
		img := p.Permute(s, perm)
		if got := p.CanonicalizePinned(img, pinned); !got.Equal(base) {
			t.Fatalf("perm %v: pinned canonical %v != %v", perm, got, base)
		}
	}
	// A permutation moving the pinned pid generally lands elsewhere.
	moved := p.Permute(s, []int{1, 0, 2, 3})
	if got := p.CanonicalizePinned(moved, pinned); got.Equal(base) {
		t.Fatal("moving the pinned pid should change the pinned representative here")
	}

	// Pinning every pid degrades to cursor normalization only.
	all := p.CanonicalizePinned(s, []int{0, 1, 2, 3})
	if !all.Equal(p.NormalizeCursors(s)) {
		t.Fatalf("all-pinned canonical %v != normalized state", all)
	}
}

// Pinned canonicalization still respects scan-cursor prefixes: an active
// cursor restricts the group to prefix-preserving permutations exactly as
// in the unpinned path.
func TestCanonicalizePinnedRespectsCursors(t *testing.T) {
	p := permProg(t, 4)
	s := p.InitState()
	p.SetShared(s, "number", 2, 5)
	p.SetShared(s, "number", 3, 1)
	p.SetPC(s, 0, p.LabelIndex("scan"))
	p.SetLocal(s, 0, "j", 2) // pid 0 has visited {0,1}
	c := p.CanonicalizePinned(s, []int{0})
	// The witnessing permutation must preserve {0,1} as a set and fix 0,
	// so slots 2 and 3 may swap but 5 can never land in slots 0/1.
	if p.Shared(c, "number", 0) == 5 || p.Shared(c, "number", 1) == 5 {
		t.Fatalf("prefix violated: %v", c)
	}
	if p.Shared(c, "number", 2) != 1 || p.Shared(c, "number", 3) != 5 {
		t.Fatalf("slots 2,3 should sort to (1,5): %v", c)
	}
}
