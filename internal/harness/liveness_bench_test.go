package harness

import (
	"encoding/json"
	"testing"

	"bakerypp/internal/specs"
)

// The bench-json liveness rows' machine-readable schema, pinned on a
// trimmed grid: every record carries the "analysis" discriminator, names
// encode algo-nN-mM/<analysis>/<reduction>, the reduction modes come in
// none/symmetry pairs with matching verdicts, and the rows stay honest
// about engine, completeness and what was applied: a starve row's
// symmetry request is not applied (the cycle analysis runs on the
// dead-cursor-reset graph either way), FCFS's is, and every row records
// the engine setting it ran at (FCFS runs on Check's engine).
func TestLivenessBenchJSONSchema(t *testing.T) {
	rep := &MCBenchReport{}
	cells := []livenessBenchCell{{"bakerypp", specs.Config{N: 3, M: 2}, true}}
	if err := appendLivenessBench(rep, ExpConfig{MCWorkers: -1}, cells); err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 4 { // starve none+symmetry, fcfs none+symmetry
		t.Fatalf("got %d records, want 4", len(rep.Records))
	}

	data, err := json.Marshal(rep.Records)
	if err != nil {
		t.Fatal(err)
	}
	var raw []map[string]interface{}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	byName := map[string]MCBenchRecord{}
	for i, rec := range rep.Records {
		byName[rec.Name] = rec
		analysis, _ := raw[i]["analysis"].(string)
		if analysis != "starve" && analysis != "fcfs" {
			t.Errorf("record %q: analysis = %q", rec.Name, analysis)
		}
		wantName := "bakerypp-n3-m2/" + analysis + "/" + rec.Reduction
		if rec.Name != wantName {
			t.Errorf("record name %q, want %q", rec.Name, wantName)
		}
		if !rec.Complete {
			t.Errorf("record %q: bounded grid cells must complete", rec.Name)
		}
		if rec.Symmetry != (rec.Reduction == "symmetry") || rec.Applied != (rec.Symmetry && analysis == "fcfs") {
			t.Errorf("record %q: inconsistent reduction flags %+v", rec.Name, rec)
		}
		if rec.Workers != -1 {
			t.Errorf("record %q: Workers = %d, want the run's -1", rec.Name, rec.Workers)
		}
		if rec.States <= 0 || rec.WallSeconds < 0 {
			t.Errorf("record %q: implausible measurements %+v", rec.Name, rec)
		}
	}
	// Verdict parity between each analysis's none and symmetry rows; the
	// starve rows build one graph, and pinned FCFS explores fewer states
	// than the full product.
	for _, analysis := range []string{"starve", "fcfs"} {
		full := byName["bakerypp-n3-m2/"+analysis+"/none"]
		red := byName["bakerypp-n3-m2/"+analysis+"/symmetry"]
		if full.Verdict != red.Verdict {
			t.Errorf("%s verdicts diverge: full=%q reduced=%q", analysis, full.Verdict, red.Verdict)
		}
		if analysis == "starve" && red.States != full.States {
			t.Errorf("starve: the symmetry row built %d states, the none row %d", red.States, full.States)
		}
		if analysis == "fcfs" && red.States >= full.States {
			t.Errorf("fcfs: reduced row explored %d states, full %d", red.States, full.States)
		}
	}
}
