package mc

import (
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// equivProg is a fully equivariant symmetric program — no id comparisons,
// no scan cursors — on which the quotient edges lift exactly.
func equivProg(n int) *gcl.Prog {
	p := gcl.New("equiv", n)
	p.SharedArray("flag", n, 0)
	p.Own("flag")
	p.SetSymmetry(gcl.FullSymmetry)
	p.Label("ncs", gcl.Goto("a", gcl.SetSelf("flag", gcl.C(1))))
	p.Label("a", gcl.Goto("b", gcl.SetSelf("flag", gcl.C(2))))
	p.Label("b", gcl.Goto("ncs", gcl.SetSelf("flag", gcl.C(0))))
	p.MustBuild()
	return p
}

// The tracking product must cover the cursor-normalized reachable state
// space EXACTLY — every normalized full-graph state appears as exactly one
// product view, nothing is fabricated, and stabilizer-coset key
// canonicalization keeps the node count equal to the distinct-view count.
// This is the quotient liveness layer's central soundness invariant: the
// bakery family is only quasi-symmetric, so the product is built from
// true dynamics rather than by lifting stored edges (lifting alone
// measurably drops the Section 6.3 livelock — see quotient.go).
func TestQuotientProductCoversNormalizedSpace(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	full, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pq := specs.BakeryPP(specs.Config{N: 3, M: 2})
	quot, err := BuildGraph(pq, Options{Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if !quot.Quotient() {
		t.Fatal("quotient graph not built")
	}
	pr := quot.buildProduct()

	fullSet := map[string]bool{}
	for i := 0; i < full.NumStates(); i++ {
		fullSet[p.Key(p.NormalizeCursors(full.State(i)))] = true
	}
	prodSet := map[string]bool{}
	view := make(gcl.State, p.StateLen())
	for i := range pr.nodes {
		pr.viewInto(view, pr.nodes[i])
		k := pq.Key(view)
		if prodSet[k] {
			t.Errorf("duplicate product node for view %s", pq.Format(view))
		}
		prodSet[k] = true
	}
	for k := range fullSet {
		if !prodSet[k] {
			t.Error("product misses a normalized reachable state")
			break
		}
	}
	for k := range prodSet {
		if !fullSet[k] {
			t.Error("product fabricates an unreachable state")
			break
		}
	}
	if len(prodSet) != len(fullSet) || len(pr.nodes) != len(fullSet) {
		t.Errorf("product %d nodes / %d views, normalized full %d states",
			len(pr.nodes), len(prodSet), len(fullSet))
	}
	if pr.fastHits == 0 || pr.slowPaths == 0 {
		t.Errorf("expected both identification paths exercised on a quasi-symmetric spec: fast=%d slow=%d",
			pr.fastHits, pr.slowPaths)
	}
	// The supplementary orbit table must be non-empty here: quasi-symmetric
	// dedup genuinely under-approximates orbit reachability (the store's
	// representatives' successors do not cover the successors of their
	// orbit-mates), and the product stays exact only because unknown orbits
	// are interned on the side. If this ever becomes zero the assertion is
	// good news — but until then it documents why the table exists.
	if len(pr.extra) == 0 {
		t.Log("note: quotient store covered every orbit the product reached (supplementary table unused)")
	} else {
		t.Logf("supplementary orbits: %d (quotient store has %d)", len(pr.extra), quot.NumStates())
	}
}

// On a truly equivariant program the product equals the full graph node
// for node and every successor identification takes the lifted fast path.
func TestQuotientProductExactForEquivariantProgram(t *testing.T) {
	full, err := BuildGraph(equivProg(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	quot, err := BuildGraph(equivProg(3), Options{Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	pr := quot.buildProduct()
	if len(pr.nodes) != full.NumStates() {
		t.Errorf("product %d nodes, full graph %d states", len(pr.nodes), full.NumStates())
	}
	if pr.slowPaths != 0 {
		t.Errorf("equivariant program took %d slow identifications (want 0)", pr.slowPaths)
	}
}

// Every quotient edge's permutation annotation satisfies its defining
// invariant: NormalizeCursors(successor) equals the annotated image of the
// stored target representative's normal form. Both tiers read the
// target's witness from its slab tail, the spill tier from a mapped block.
func TestQuotientEdgePermInvariant(t *testing.T) {
	for _, store := range []string{"exact", "exact,spill"} {
		p := specs.BakeryPP(specs.Config{N: 3, M: 2})
		g, err := BuildGraph(p, Options{Symmetry: true, Store: mustStore(t, store)})
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for j := 0; j < g.NumStates(); j++ {
			succs := p.AllSuccs(g.State(j), gcl.ModeUnbounded)
			if len(succs) != len(g.Adj[j]) {
				t.Fatalf("%s: state %d: %d successors but %d edges", store, j, len(succs), len(g.Adj[j]))
			}
			for k, e := range g.Adj[j] {
				want := p.Permute(p.NormalizeCursors(g.State(int(e.To))), p.PermAt(int(e.Perm)))
				if !p.NormalizeCursors(succs[k].State).Equal(want) {
					t.Fatalf("%s: state %d edge %d: annotation invariant violated", store, j, k)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no edges checked", store)
		}
	}
}
