package mc

// The plan-level soundness gate for the lossy store tier: each analysis
// whose correctness needs an exact visited set must refuse the bitstate
// store, in the heap or spilled, with an error (the cmds turn it into exit
// 2), while the exact spill tier — exact membership, different residency —
// passes everywhere. One test per gated analysis, plus the ungated safety
// baseline; the conformance suite (storeconformance_test.go) covers the
// accepted combinations' behaviour.

import (
	"strings"
	"testing"

	"bakerypp/internal/specs"
)

var lossyStores = []string{"bitstate", "bitstate,spill"}

// wantStoreRefusal asserts err is planFor's refusal for the named
// analysis.
func wantStoreRefusal(t *testing.T, err error, analysis, mode string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted the lossy %q store; a single omitted state silently corrupts it", analysis, mode)
	}
	if !strings.Contains(err.Error(), "needs an exact visited set") {
		t.Fatalf("%s/%s: refusal has the wrong shape: %v", analysis, mode, err)
	}
	if !strings.Contains(err.Error(), analysis) {
		t.Fatalf("refusal does not name the %s analysis: %v", analysis, err)
	}
}

// TestGraphRefusesLossyStores: BuildGraph addresses states by their
// stable numbering; an omitted state would leave dangling edge targets.
func TestGraphRefusesLossyStores(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	for _, mode := range lossyStores {
		_, err := BuildGraph(p, Options{Store: mustStore(t, mode)})
		wantStoreRefusal(t, err, "graph", mode)
	}
	if _, err := BuildGraph(p, Options{Store: mustStore(t, "exact,spill")}); err != nil {
		t.Fatalf("exact spill tier must remain graph-capable: %v", err)
	}
}

// TestFCFSRefusesLossyStores: the monitor product prunes on membership;
// a false hit would skip a product subtree that can hold the violation.
func TestFCFSRefusesLossyStores(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	for _, mode := range lossyStores {
		_, err := CheckFCFS(p, 0, 1, Options{Store: mustStore(t, mode)})
		wantStoreRefusal(t, err, "fcfs", mode)
	}
	if _, err := CheckFCFS(p, 0, 1, Options{Store: mustStore(t, "exact,spill")}); err != nil {
		t.Fatalf("exact spill tier must remain FCFS-capable: %v", err)
	}
}

// TestRefinementRefusesLossyStores: a false "already memoized" hit would
// prune an unexplored behaviour and could mask a counterexample.
func TestRefinementRefusesLossyStores(t *testing.T) {
	impl := specs.BakeryPP(specs.Config{N: 2, M: 2})
	spec := specs.Bakery(specs.Config{N: 2, M: 64})
	for _, mode := range lossyStores {
		_, err := CheckBoundedRefinement(impl, spec, RefinementOptions{
			MaxEvents: 2, Store: mustStore(t, mode),
		})
		wantStoreRefusal(t, err, "refinement", mode)
	}
	if _, err := CheckBoundedRefinement(impl, spec, RefinementOptions{
		MaxEvents: 2, Store: mustStore(t, "exact,spill"),
	}); err != nil {
		t.Fatalf("exact spill tier must remain refinement-capable: %v", err)
	}
}

// TestSafetyAcceptsLossyStores is the contrast case: the plain safety
// check is self-correcting under omission risk (it claims only the
// probabilistic verdict the banner states), so planFor accepts every
// tier — and PlanFor, the exported surface, agrees with the internal
// gate on both sides.
func TestSafetyAcceptsLossyStores(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	for _, mode := range append([]string{"exact", "exact,spill"}, lossyStores...) {
		plan, err := PlanFor(p, Options{Store: mustStore(t, mode)}, SafetyAnalysis{})
		if err != nil {
			t.Fatalf("safety analysis refused store %q: %v", mode, err)
		}
		if got := plan.Store.String(); got != mode {
			t.Fatalf("plan normalized %q to %q", mode, got)
		}
	}
	for _, mode := range lossyStores {
		if _, err := PlanFor(p, Options{Store: mustStore(t, mode)}, GraphAnalysis{}); err == nil {
			t.Fatalf("PlanFor accepted %q for the graph analysis", mode)
		}
	}
}
