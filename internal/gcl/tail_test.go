package gcl_test

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
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

// TestPackTailRefusesWideCursor: a cursor value lies in 0..N (PidLocal),
// and a tail field holds bits.Len(N) bits, so PackTail refuses N+1 — and
// 256, and a negative value — with a panic naming the value, the process
// and the state.
func TestPackTailRefusesWideCursor(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 3})
	for _, v := range []int32{4, 256, -1} {
		s := p.InitState()
		p.SetLocal(s, 1, "j", v)
		var ks gcl.KeySlab
		base := p.NewCanonicalizer().CanonicalizeBatch([]gcl.Succ{{State: s}}, &ks)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("process 1 holds %d", v)) || !strings.Contains(msg, p.Format(s)) {
					t.Fatalf("PackTail on cursor %d: panic %q, want one naming the value, the process and the state", v, msg)
				}
			}()
			p.PackTail(make([]int32, p.TailLen()), ks.Witness(base), s)
		}()
	}
}

// TestTailBitPackedRoundTrip packs tails bits.Len(N) bits per field and
// restores every state from its canonical key and tail, bit for bit, at
// N = 2..9, 16 and 255 (the most a witness byte names). Up to N = 16 the
// spec is the fine-grained Bakery++, two cursors per process, whose states
// come from random walks, one random process stepping at a time, with every cursor then set to a random value in
// 0..N, N itself included; at 255 it is a cursor-free flag program, whose
// witnesses need all eight bits. The tail is ⌈N·(1+cursors)·bits.Len(N)/32⌉
// words: one at N = 4 and 5 for one cursor.
func TestTailBitPackedRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 16, 255} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			var p *gcl.Prog
			cursors := []string{"j", "k"}
			if n <= 16 {
				p = specs.BakeryPP(specs.Config{N: n, M: 3, Fine: true})
			} else {
				p = flagProg(n)
				cursors = nil
			}
			b := bits.Len(uint(n))
			if want := (n*(1+len(cursors))*b + 31) / 32; p.TailLen() != want {
				t.Fatalf("TailLen %d, want %d", p.TailLen(), want)
			}
			if one := specs.BakeryPP(specs.Config{N: n, M: 3}); n == 4 || n == 5 {
				if one.TailLen() != 1 {
					t.Fatalf("one cursor: TailLen %d, want 1", one.TailLen())
				}
			}
			rng := rand.New(rand.NewPCG(uint64(n), 7))
			var succs []gcl.Succ
			for walk := 0; walk < 200; walk++ {
				s := p.InitState()
				for step := rng.IntN(4 * n); step > 0; step-- {
					if next := p.Succs(s, rng.IntN(n), gcl.ModeUnbounded, nil); len(next) > 0 {
						s = next[rng.IntN(len(next))].State
					}
				}
				for q := 0; q < n; q++ {
					for _, c := range cursors {
						p.SetLocal(s, q, c, int32(rng.IntN(n+1)))
					}
				}
				succs = append(succs, gcl.Succ{State: s})
			}
			if len(cursors) > 0 {
				top := p.InitState()
				for q := 0; q < n; q++ {
					p.SetLocal(top, q, cursors[0], int32(n))
				}
				succs = append(succs, gcl.Succ{State: top})
			}
			var ks gcl.KeySlab
			base := p.NewCanonicalizer().CanonicalizeBatch(succs, &ks)
			tail := make([]int32, p.TailLen())
			got := make(gcl.State, p.StateLen())
			for i, sc := range succs {
				s, key, wit := sc.State, ks.Key(base+i), ks.Witness(base+i)
				p.PackTail(tail, wit, s)
				p.Restore(got, key, tail)
				if !got.Equal(s) {
					t.Fatalf("state %s restored as %s", p.Format(s), p.Format(got))
				}
			}
		})
	}
}

// flagProg is a cursor-free program of n processes, each raising and
// lowering its own flag.
func flagProg(n int) *gcl.Prog {
	p := gcl.New("flags", n)
	p.SharedArray("flag", n, 0)
	p.Own("flag")
	p.SetSymmetry(gcl.FullSymmetry)
	p.Label("ncs", gcl.Goto("up", gcl.SetSelf("flag", gcl.C(1))))
	p.Label("up", gcl.Goto("ncs", gcl.SetSelf("flag", gcl.C(0))))
	p.MustBuild()
	return p
}

// TestCanonicalizeRefusesPast255Processes: a witness is recorded one byte
// per pid, so canonicalization stops at 255 processes even without scan
// cursors (cursor programs already stop at 32).
func TestCanonicalizeRefusesPast255Processes(t *testing.T) {
	for _, n := range []int{255, 256} {
		p := flagProg(n)
		if got := p.CanCanonicalize(); got != (n <= 255) {
			t.Fatalf("N=%d: CanCanonicalize %v", n, got)
		}
	}
}
