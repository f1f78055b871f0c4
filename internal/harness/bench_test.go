package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bakerypp/internal/specs"
)

// TestWriteMCBenchJSON runs a trimmed benchmark grid (the N <= 3 cells —
// the heavy N >= 4 explorations are covered by internal/mc's reduction
// tests and the full grid by `bakerybench -bench-json`) and checks the
// emitted JSON round-trips losslessly and is internally consistent:
// every cell emits one record per reduction mode, all modes of a cell
// agree on the verdict, and no reduced mode explores more states than
// the unreduced run.
func TestWriteMCBenchJSON(t *testing.T) {
	grid := []mcBenchCell{
		{"bakerypp", specs.Config{N: 2, M: 2}, true},
		{"bakerypp", specs.Config{N: 3, M: 2}, true},
		{"bakery", specs.Config{N: 3, M: 3}, true},
		{"szymanski", specs.Config{N: 3}, false},
	}
	rep, err := runMCBench(ExpConfig{MCWorkers: -1}, grid)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_mc.json")
	if err := WriteBenchJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed MCBenchReport
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(parsed.Records, rep.Records) {
		t.Fatal("records did not round-trip through JSON")
	}
	wantRecords := 3*len(benchModes(true)) + len(benchModes(false))
	if len(parsed.Records) != wantRecords {
		t.Fatalf("got %d records, want %d (one per cell and reduction mode)", len(parsed.Records), wantRecords)
	}

	modes := map[string]map[string]MCBenchRecord{}
	for _, r := range parsed.Records {
		if r.States <= 0 || r.WallSeconds < 0 {
			t.Errorf("%s: implausible record %+v", r.Name, r)
		}
		if r.Symmetry && !r.Applied {
			t.Errorf("%s: symmetry requested but not applied", r.Name)
		}
		if r.POR != r.PORApplied {
			t.Errorf("%s: por requested (%v) but applied (%v)", r.Name, r.POR, r.PORApplied)
		}
		wantName := fmt.Sprintf("%s-n%d-m%d/%s", r.Algo, r.N, r.M, r.Reduction)
		if r.Store != "exact" {
			wantName += "/" + r.Store
		}
		if r.Name != wantName {
			t.Errorf("record name %q does not encode its reduction mode (want %q)", r.Name, wantName)
		}
		if modes[nmKey(r)] == nil {
			modes[nmKey(r)] = map[string]MCBenchRecord{}
		}
		modes[nmKey(r)][r.Reduction] = r
	}
	for cell, byMode := range modes {
		base, haveFull := byMode["none"]
		if !haveFull {
			base = byMode["symmetry"]
		}
		for mode, r := range byMode {
			if r.Verdict != base.Verdict {
				t.Errorf("%s/%s: verdict diverges (%s vs %s)", cell, mode, r.Verdict, base.Verdict)
			}
			if haveFull && r.States > base.States {
				t.Errorf("%s/%s: reduced run explored more states (%d) than full (%d)", cell, mode, r.States, base.States)
			}
		}
	}
}

// TestMCBenchJSONSchema pins the machine-readable surface: the set of
// keys each record serialises must not drift silently (downstream
// trajectory tooling parses these by name), and the reduction-mode column
// must be present with one of its four values.
func TestMCBenchJSONSchema(t *testing.T) {
	grid := []mcBenchCell{{"bakerypp", specs.Config{N: 2, M: 2}, true}}
	rep, err := runMCBench(ExpConfig{}, grid)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		GoVersion  string                   `json:"go_version"`
		GOMAXPROCS int                      `json:"gomaxprocs"`
		Timestamp  string                   `json:"timestamp"`
		Records    []map[string]interface{} `json:"records"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw.GoVersion == "" || raw.Timestamp == "" || len(raw.Records) == 0 {
		t.Fatalf("report header incomplete: %+v", raw)
	}
	want := []string{
		"name", "algo", "n", "m", "workers",
		"reduction", "symmetry", "symmetry_applied", "por", "por_applied",
		"store",
		"states", "transitions", "verdict", "complete",
		"wall_seconds", "states_per_sec", "peak_rss_kb",
	}
	validModes := map[string]bool{"none": true, "symmetry": true, "por": true, "symmetry+por": true}
	seen := map[string]bool{}
	for _, rec := range raw.Records {
		for _, k := range want {
			if _, ok := rec[k]; !ok {
				t.Errorf("record %v missing key %q", rec["name"], k)
			}
		}
		if len(rec) != len(want) {
			t.Errorf("record has %d keys, schema has %d — update the schema test alongside the struct", len(rec), len(want))
		}
		mode, _ := rec["reduction"].(string)
		if !validModes[mode] {
			t.Errorf("record %v has invalid reduction mode %q", rec["name"], mode)
		}
		seen[mode] = true
	}
	for mode := range validModes {
		if !seen[mode] {
			t.Errorf("full-cell grid emitted no %q record", mode)
		}
	}
}

// TestStoreBenchRecords runs a trimmed store-mode grid (N=2, where the
// full n=4 rows of storeBenchCells would be too slow for the unit suite)
// and checks the rows the other tests never produce: non-exact records
// suffix their name with the store spec, carry it in the store column,
// and agree with the exact baseline's verdict.
func TestStoreBenchRecords(t *testing.T) {
	rep := &MCBenchReport{}
	none := benchMode{"none", false, false}
	c := specs.Config{N: 2, M: 2}
	cells := []storeBenchCell{
		{"bakerypp", c, none, "bitstate"},
		{"bakerypp", c, none, "exact,spill"},
		{"bakerypp", c, none, "bitstate,spill"},
	}
	if err := appendStoreBench(rep, ExpConfig{}, cells); err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(cells) {
		t.Fatalf("got %d records, want %d", len(rep.Records), len(cells))
	}
	for i, r := range rep.Records {
		if r.Store != cells[i].store {
			t.Errorf("%s: store column %q, want %q", r.Name, r.Store, cells[i].store)
		}
		want := fmt.Sprintf("%s-n%d-m%d/none/%s", r.Algo, r.N, r.M, cells[i].store)
		if r.Name != want {
			t.Errorf("record name %q does not encode its store tier (want %q)", r.Name, want)
		}
		if r.Verdict != "verified" {
			t.Errorf("%s: verdict %q, want \"verified\" (bakerypp n2m2 is safe under every tier)", r.Name, r.Verdict)
		}
	}
}

func nmKey(r MCBenchRecord) string {
	return fmt.Sprintf("%s/%d/%d", r.Algo, r.N, r.M)
}
