package gcl

import "testing"

// monitorProg is a two-label cycle with tagged branches, a pid-indexed
// array and a scan cursor.
func monitorProg(n int) *Prog {
	p := New("monitored", n)
	p.SharedArray("flag", n, 0)
	p.Own("flag")
	p.LocalVar("j", 0)
	p.SetSymmetry(FullSymmetry)
	p.PidLocal("j", "scan")
	p.Label("ncs", Goto("scan", SetSelf("flag", C(1)), SetL("j", C(0))).WithTag("try"))
	p.Label("scan",
		Br(Lt(L("j"), C(n)), "scan", SetL("j", Add(L("j"), C(1)))),
		Br(Ge(L("j"), C(n)), "cs").WithTag("cs-enter"),
	)
	p.Label("cs", Goto("ncs", SetSelf("flag", C(0))))
	return p.MustBuild()
}

// TestWithMonitor checks the composed program: the cell is the last shared
// word, every transition of the monitored program is one of p's with the
// cell dropped, in the same order, and only the accepted tags move the
// cell; p itself is left as it was.
func TestWithMonitor(t *testing.T) {
	p := monitorProg(3)
	// The cell counts pid 0's entries and pid 1's tries, twice each.
	mp := p.WithMonitor("m", func(tag string) (Expr, bool) {
		switch tag {
		case "cs-enter":
			return Add(Sh("m"), Eq(Self(), C(0))), true
		case "try":
			return Add(Sh("m"), Add(Eq(Self(), C(1)), Eq(Self(), C(1)))), true
		}
		return Expr{}, false
	})
	cell := p.SharedCells()
	if mp.SharedCells() != cell+1 || mp.Name != p.Name || mp.Symmetry() != p.Symmetry() || !mp.CanCanonicalize() {
		t.Fatalf("monitored program: %d shared cells, name %q, symmetry %v; p has %d, %q, %v",
			mp.SharedCells(), mp.Name, mp.Symmetry(), cell, p.Name, p.Symmetry())
	}
	if got := p.BranchesAt("scan")[1].Assigns; got != 0 {
		t.Fatalf("WithMonitor changed p: its cs-enter branch has %d assignments", got)
	}
	drop := func(s State) State { return append(s[:cell:cell], s[cell+1:]...) }
	states := []State{mp.InitState()}
	seen := map[string]bool{mp.Key(states[0]): true}
	for h := 0; h < len(states) && h < 500; h++ {
		s := states[h]
		succs, orig := mp.AllSuccs(s, ModeUnbounded), p.AllSuccs(drop(s), ModeUnbounded)
		if len(succs) != len(orig) {
			t.Fatalf("%s: %d successors, p has %d", mp.Format(s), len(succs), len(orig))
		}
		for i, sc := range succs {
			o := orig[i]
			if sc.Pid != o.Pid || sc.Label(mp) != o.Label(p) || !drop(sc.State).Equal(o.State) {
				t.Fatalf("%s: successor %d is p%d:%s, p's is p%d:%s", mp.Format(s), i, sc.Pid, sc.Label(mp), o.Pid, o.Label(p))
			}
			want := s[cell]
			switch {
			case sc.Tag(mp) == "cs-enter" && sc.Pid == 0:
				want++
			case sc.Tag(mp) == "try" && sc.Pid == 1:
				want += 2
			}
			if sc.State[cell] != want {
				t.Fatalf("p%d:%s (tag %q) takes the cell from %d to %d, want %d",
					sc.Pid, sc.Label(mp), sc.Tag(mp), s[cell], sc.State[cell], want)
			}
			if k := mp.Key(sc.State); !seen[k] && sc.State[cell] < 16 {
				seen[k] = true
				states = append(states, sc.State)
			}
		}
	}
	for _, f := range []func(){
		func() { mp.WithMonitor("m", func(string) (Expr, bool) { return Expr{}, false }) },
		func() { New("unbuilt", 2).WithMonitor("m", func(string) (Expr, bool) { return Expr{}, false }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("WithMonitor accepted a declared cell or an unbuilt program")
				}
			}()
			f()
		}()
	}
}
