package gcl_test

import (
	"fmt"
	"strings"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// bfsStates returns the first limit states of p in breadth-first order.
func bfsStates(p *gcl.Prog, limit int) []gcl.State {
	seen := map[string]bool{p.Key(p.InitState()): true}
	states := []gcl.State{p.InitState()}
	for h := 0; h < len(states) && len(states) < limit; h++ {
		for _, sc := range p.AllSuccs(states[h], gcl.ModeUnbounded) {
			if k := p.Key(sc.State); !seen[k] {
				seen[k] = true
				states = append(states, sc.State)
				if len(states) == limit {
					break
				}
			}
		}
	}
	return states
}

// TestTailRoundTrip packs every state's canonical key, witness and raw
// cursor values the way the model checker's symmetric store keeps them,
// and restores the state from them: the result must be the state bit for
// bit, dead cursors included, and the batch key must be Canonicalize's.
// The specs cover no cursor (szymanski), one (bakery, modbakery, bakerypp)
// and two (bakerypp's fine-grained doorway).
func TestTailRoundTrip(t *testing.T) {
	type cell struct {
		name string
		mk   func(n int) *gcl.Prog
	}
	cells := []cell{
		{"bakerypp", func(n int) *gcl.Prog { return specs.BakeryPP(specs.Config{N: n, M: 3}) }},
		{"bakerypp-fine", func(n int) *gcl.Prog { return specs.BakeryPP(specs.Config{N: n, M: 3, Fine: true}) }},
		{"bakery", func(n int) *gcl.Prog { return specs.Bakery(specs.Config{N: n, M: 3}) }},
		{"modbakery", func(n int) *gcl.Prog { return specs.ModBakery(n, 3) }},
		{"szymanski", func(n int) *gcl.Prog { return specs.Szymanski(n) }},
	}
	for _, c := range cells {
		for _, n := range []int{3, 4} {
			t.Run(fmt.Sprintf("%s-n%d", c.name, n), func(t *testing.T) {
				p := c.mk(n)
				states := bfsStates(p, 20000)
				succs := make([]gcl.Succ, len(states))
				for i, s := range states {
					succs[i] = gcl.Succ{State: s}
				}
				var ks gcl.KeySlab
				base := p.NewCanonicalizer().CanonicalizeBatch(succs, &ks)
				tail := make([]int32, p.TailLen())
				got := make(gcl.State, p.StateLen())
				restored := 0
				for i, s := range states {
					key := ks.Key(base + i)
					if want := p.Canonicalize(s); !key.Equal(want) {
						t.Fatalf("state %s: batch key %v, Canonicalize %v", p.Format(s), key, want)
					}
					p.PackTail(tail, ks.Witness(base+i), s)
					p.Restore(got, key, tail)
					if !got.Equal(s) {
						t.Fatalf("state %s restored as %s", p.Format(s), p.Format(got))
					}
					if !key.Equal(s) {
						restored++
					}
				}
				t.Logf("%d states, %d differ from their key", len(states), restored)
			})
		}
	}
}

// TestPackTailRefusesWideCursor: a cursor value past one byte cannot be
// recorded, and the panic names the state.
func TestPackTailRefusesWideCursor(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 3})
	s := p.InitState()
	p.SetLocal(s, 1, "j", 256)
	var ks gcl.KeySlab
	base := p.NewCanonicalizer().CanonicalizeBatch([]gcl.Succ{{State: s}}, &ks)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "256") || !strings.Contains(msg, p.Format(s)) {
			t.Fatalf("PackTail on cursor 256: panic %q, want one naming the value and the state", msg)
		}
	}()
	p.PackTail(make([]int32, p.TailLen()), ks.Witness(base), s)
}

// TestCanonicalizeRefusesPast255Processes: a witness is recorded one byte
// per pid, so canonicalization stops at 255 processes even without scan
// cursors (cursor programs already stop at 32).
func TestCanonicalizeRefusesPast255Processes(t *testing.T) {
	for _, n := range []int{255, 256} {
		p := gcl.New("flags", n)
		p.SharedArray("flag", n, 0)
		p.Own("flag")
		p.SetSymmetry(gcl.FullSymmetry)
		p.Label("ncs", gcl.Goto("up", gcl.SetSelf("flag", gcl.C(1))))
		p.Label("up", gcl.Goto("ncs", gcl.SetSelf("flag", gcl.C(0))))
		p.MustBuild()
		if got := p.CanCanonicalize(); got != (n <= 255) {
			t.Fatalf("N=%d: CanCanonicalize %v", n, got)
		}
	}
}
