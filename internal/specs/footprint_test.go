package specs

// Commutation oracle over the real specifications: for every registered
// algorithm at a small size, walk a bounded prefix of the reachable states
// and, for each pair of enabled successors of different processes that
// gcl.ActionsIndependent declares independent, execute both orders and
// assert they reach the same state. This pins the soundness direction of
// the footprint analysis on exactly the programs the model checker's
// partial-order reduction runs on. A second oracle checks the per-branch
// "writes no shared cell" verdict the scenario layer's wake skip relies
// on against execution.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"testing"

	"bakerypp/internal/gcl"
)

func TestSpecCommutationOracle(t *testing.T) {
	progs := []*gcl.Prog{
		Bakery(Config{N: 3, M: 3}),
		BakeryPP(Config{N: 3, M: 2}),
		BakeryPP(Config{N: 2, M: 2, Fine: true}),
		BakeryPPSafe(2, 2),
		ModBakery(3, 2),
		Szymanski(3),
		Peterson(3),
		BlackWhite(3),
	}
	const maxStates = 3000
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			checked := 0
			queue := []gcl.State{p.InitState()}
			seen := map[string]bool{p.Key(queue[0]): true}
			for head := 0; head < len(queue) && len(queue) < maxStates; head++ {
				s := queue[head]
				succs := p.AllSuccs(s, gcl.ModeUnbounded)
				for _, sc := range succs {
					if k := p.Key(sc.State); !seen[k] {
						seen[k] = true
						queue = append(queue, sc.State)
					}
				}
				for i := 0; i < len(succs); i++ {
					for k := i + 1; k < len(succs); k++ {
						a, b := succs[i], succs[k]
						if a.Pid == b.Pid {
							continue
						}
						la, lb := int(a.LabelIdx), int(b.LabelIdx)
						if !p.ActionsIndependent(a.Pid, la, a.Branch, b.Pid, lb, b.Branch) {
							continue
						}
						ab, okAB := rerun(p, a.State, b)
						ba, okBA := rerun(p, b.State, a)
						if !okAB || !okBA {
							t.Fatalf("independent pair disabled the partner: p%d:%s/%d, p%d:%s/%d in %s",
								a.Pid, a.Label(p), a.Branch, b.Pid, b.Label(p), b.Branch, p.Format(s))
						}
						if !ab.State.Equal(ba.State) {
							t.Fatalf("independent pair does not commute: p%d:%s/%d, p%d:%s/%d\nstate: %s\na;b: %s\nb;a: %s",
								a.Pid, a.Label(p), a.Branch, b.Pid, b.Label(p), b.Branch,
								p.Format(s), p.Format(ab.State), p.Format(ba.State))
						}
						if ab.Overflow != b.Overflow || ba.Overflow != a.Overflow {
							t.Fatalf("independent partner changed overflow accounting (p%d:%s, p%d:%s)",
								a.Pid, a.Label(p), b.Pid, b.Label(p))
						}
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatalf("%s: oracle exercised no independent pairs", p.Name)
			}
			t.Logf("%s: %d independent pairs commuted over %d states", p.Name, checked, len(queue))
		})
	}
}

// TestBranchWritesSharedMatchesExecution: for every specification at
// N=2 and N=3, on a breadth-first prefix of the reachable states, every
// enabled branch that gcl.BranchWritesShared declares shared-write-free
// leaves the shared prefix of the state unchanged when applied.
func TestBranchWritesSharedMatchesExecution(t *testing.T) {
	const maxStates = 3000
	for _, n := range []int{2, 3} {
		for _, p := range append(allSpecs(n, 2), BakeryPPSafe(n, 2)) {
			var buf gcl.SuccBuf
			shared := p.SharedCells()
			next := make(gcl.State, p.StateLen())
			checked := 0
			queue := []gcl.State{p.InitState()}
			seen := map[string]bool{p.Key(queue[0]): true}
			for head := 0; head < len(queue); head++ {
				s := queue[head]
				for pid := 0; pid < p.N; pid++ {
					li := p.PC(s, pid)
					for mask := p.EnabledMask(s, pid, &buf); mask != 0; mask &= mask - 1 {
						bi := bits.TrailingZeros64(mask)
						p.ApplyInto(next, s, pid, bi, gcl.ModeUnbounded, &buf)
						if !p.BranchWritesShared(li, bi) {
							checked++
							if !next[:shared].Equal(s[:shared]) {
								t.Fatalf("%s N=%d: p%d:%s/%d declared shared-write-free but changed shared state\nfrom %s\nto   %s",
									p.Name, n, pid, p.LabelName(li), bi, p.Format(s), p.Format(next))
							}
						}
						if k := p.Key(next); !seen[k] && len(queue) < maxStates {
							seen[k] = true
							queue = append(queue, p.Clone(next))
						}
					}
				}
			}
			if checked == 0 {
				t.Errorf("%s N=%d: no shared-write-free branch was exercised", p.Name, n)
			}
		}
	}
}

func rerun(p *gcl.Prog, s gcl.State, succ gcl.Succ) (gcl.Succ, bool) {
	for _, sc := range p.Succs(s, succ.Pid, gcl.ModeUnbounded, nil) {
		if sc.LabelIdx == succ.LabelIdx && sc.Branch == succ.Branch {
			return sc, true
		}
	}
	return gcl.Succ{}, false
}

// footprintDigests pins every specification's static footprints. Each
// value hashes, for every label and branch in declaration order, the
// BranchReads and BranchWrites of every shared variable (Self, All and the
// constant indices in the order the analysis records them),
// BranchLocalOnly, BranchGuardReadsShared and BranchWritesShared. POR's
// ample-set check and the scenario layer's wake-up rule both read these,
// so a change to how footprints are derived must leave every digest as it
// is.
var footprintDigests = map[string]string{
	"bakery/N=2":              "3d867e3ffaf61537",
	"bakery-fine/N=2":         "e3388e608eacb440",
	"bakerypp/N=2":            "7a61cef7ca9d1e87",
	"bakerypp-fine/N=2":       "76542006fcb535bd",
	"bakerypp-splitreset/N=2": "119794972bce37a1",
	"bakerypp-eqcheck/N=2":    "7a61cef7ca9d1e87",
	"bakerypp-nogate/N=2":     "18cd3b1f02089143",
	"blackwhite/N=2":          "7841188b69da727f",
	"peterson/N=2":            "5e9a06c3b8084dd9",
	"szymanski/N=2":           "96cbb382f6b6cbcc",
	"modbakery/N=2":           "3d867e3ffaf61537",
	"bakerypp-safe/N=2":       "9535a2b2b9a4bbca",
	"bakery/N=3":              "3d867e3ffaf61537",
	"bakery-fine/N=3":         "e3388e608eacb440",
	"bakerypp/N=3":            "3141926ef4f2f058",
	"bakerypp-fine/N=3":       "f563264c0faea2c8",
	"bakerypp-splitreset/N=3": "f8a31b07e8f3d398",
	"bakerypp-eqcheck/N=3":    "3141926ef4f2f058",
	"bakerypp-nogate/N=3":     "18cd3b1f02089143",
	"blackwhite/N=3":          "e4fe4b5008263952",
	"peterson/N=3":            "cadeeae14e67f77a",
	"szymanski/N=3":           "1a82e6148c5a5e65",
	"modbakery/N=3":           "3d867e3ffaf61537",
	"bakerypp-safe/N=3":       "8423476f68900b02",
	"bakery/N=4":              "3d867e3ffaf61537",
	"bakery-fine/N=4":         "e3388e608eacb440",
	"bakerypp/N=4":            "353132f3d314b9bf",
	"bakerypp-fine/N=4":       "65d34f38fa22e33e",
	"bakerypp-splitreset/N=4": "fbc96606e26e6958",
	"bakerypp-eqcheck/N=4":    "353132f3d314b9bf",
	"bakerypp-nogate/N=4":     "18cd3b1f02089143",
	"blackwhite/N=4":          "941145ce32974424",
	"peterson/N=4":            "852ed1c2712dfbd5",
	"szymanski/N=4":           "8fceb4d1772cb680",
	"modbakery/N=4":           "3d867e3ffaf61537",
	"bakerypp-safe/N=4":       "dbbe7a986dc66478",
}

// footprintDigest renders p's per-branch footprints and hashes them.
func footprintDigest(p *gcl.Prog) string {
	h := sha256.New()
	cells := func(kind, name string, c *gcl.Cells) {
		if c != nil {
			fmt.Fprintf(h, " %s:%s{self=%t all=%t idx=%v}", kind, name, c.Self, c.All, c.Idx)
		}
	}
	for li, label := range p.Labels() {
		for bi := 0; bi < p.NumBranchesAt(li); bi++ {
			fmt.Fprintf(h, "%s/%d local=%t guard=%t writes=%t", label, bi,
				p.BranchLocalOnly(li, bi), p.BranchGuardReadsShared(li, bi), p.BranchWritesShared(li, bi))
			for _, name := range p.SharedNames() {
				cells("r", name, p.BranchReads(li, bi, name))
				cells("w", name, p.BranchWrites(li, bi, name))
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFootprintDigest compares every specification's footprint digest at
// N=2..4, the bakerypp ablations and the split-register variant included,
// with the pinned values.
func TestFootprintDigest(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for _, p := range append(allSpecs(n, 3), BakeryPPSafe(n, 3)) {
			key := fmt.Sprintf("%s/N=%d", p.Name, n)
			if got, want := footprintDigest(p), footprintDigests[key]; got != want {
				t.Errorf("%s: footprint digest %s, want %s", key, got, want)
			}
		}
	}
}
