package harness

// Machine-readable model-checking benchmarks: a fixed grid of exploration
// runs across the reduction modes (none / symmetry / por / symmetry+por)
// whose states/sec, states explored, and wall time are written as JSON so
// the perf trajectory of the engines is tracked from PR to PR
// (`bakerybench -bench-json BENCH_mc.json`).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"bakerypp/internal/gcl"
	"bakerypp/internal/mc"
	"bakerypp/internal/specs"
)

// MCBenchRecord is one exploration run of the benchmark grid.
type MCBenchRecord struct {
	// Name identifies the grid cell, e.g. "bakerypp-n4-m2/symmetry+por".
	Name string `json:"name"`
	Algo string `json:"algo"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// Analysis identifies what the record measures: "" (plain safety
	// check), "starve" (reset-graph build + starvation search), or
	// "fcfs" (monitor product). For "starve" the States column counts
	// graph states; for "fcfs", monitor-product states.
	Analysis string `json:"analysis,omitempty"`
	// Workers is the engine setting used (0 sequential, -1 GOMAXPROCS).
	Workers int `json:"workers"`
	// Reduction is the requested reduction mode: "none", "symmetry",
	// "por", or "symmetry+por".
	Reduction string `json:"reduction"`
	// Symmetry/POR record the requested reductions individually; the
	// *_applied fields whether the run actually used them (a spec may
	// not support symmetry; POR needs no spec support).
	Symmetry   bool `json:"symmetry"`
	Applied    bool `json:"symmetry_applied"`
	POR        bool `json:"por"`
	PORApplied bool `json:"por_applied"`

	// Store is the visited-set tier the run used ("exact", "bitstate",
	// "exact,spill", ...); cells that measure a non-exact tier
	// suffix Name with "/<store>".
	Store string `json:"store"`

	States       int     `json:"states"`
	Transitions  int     `json:"transitions"`
	Verdict      string  `json:"verdict"`
	Complete     bool    `json:"complete"`
	WallSeconds  float64 `json:"wall_seconds"`
	StatesPerSec float64 `json:"states_per_sec"`
	// EventsPerSec is the simulated-event execution rate of rows that
	// measure an event-loop simulation (the scenario rows); for those
	// rows it equals StatesPerSec, kept under its own honest name.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// AcqP99 is the fleet-wide p99 acquire latency (virtual-time ticks)
	// of a scenario row; 0 elsewhere.
	AcqP99 int64 `json:"acq_p99,omitempty"`
	// PeakRSSKB is the process's resident-set high-water mark (getrusage
	// Maxrss) after the run, in KiB. Monotonic across a report's records —
	// a run's true footprint is the delta against the preceding record —
	// and 0 on platforms without getrusage.
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// MCBenchReport is the JSON document bakerybench emits.
type MCBenchReport struct {
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Timestamp  string          `json:"timestamp"`
	Records    []MCBenchRecord `json:"records"`
}

// mcBenchCell is one grid entry. Cells whose unreduced search is far
// beyond the state bound set fullToo = false and measure only the
// symmetry-based modes.
type mcBenchCell struct {
	algo    string
	cfg     specs.Config
	fullToo bool
}

// benchMode is one reduction mode of the benchmark grid.
type benchMode struct {
	name     string
	sym, por bool
}

// benchModes returns the modes a cell measures: all four reduction modes
// where the unreduced search is feasible, the symmetry-based pair
// otherwise.
func benchModes(fullToo bool) []benchMode {
	all := []benchMode{
		{"none", false, false},
		{"symmetry", true, false},
		{"por", false, true},
		{"symmetry+por", true, true},
	}
	if fullToo {
		return all
	}
	return []benchMode{all[1], all[3]}
}

// mcBenchGrid is the fixed benchmark grid. It spans the sizes the
// EXPERIMENTS tables use plus the configurations symmetry reduction
// newly unlocks (bakery++ N=5, bakery N=6 under the default bound).
func mcBenchGrid() []mcBenchCell {
	return []mcBenchCell{
		{"bakerypp", specs.Config{N: 2, M: 2}, true},
		{"bakerypp", specs.Config{N: 3, M: 2}, true},
		{"bakerypp", specs.Config{N: 4, M: 2}, true},
		{"bakerypp", specs.Config{N: 5, M: 2}, false},
		{"bakery", specs.Config{N: 3, M: 3}, true},
		{"bakery", specs.Config{N: 4, M: 4}, true},
		{"bakery", specs.Config{N: 6, M: 4}, false},
		{"szymanski", specs.Config{N: 3}, true},
		{"szymanski", specs.Config{N: 4}, true},
	}
}

// RunMCBench runs the benchmark grid — the safety-check cells plus the
// liveness rows (starvation with and without a symmetry request, which the
// reset graph does not apply; FCFS on concrete
// vs pinned-orbit product keys) the unified analysis pipeline added, plus
// the store-mode rows (reduction modes × visited-set tiers with peak-RSS).
// cfg.MCWorkers selects the engine; cfg.Symmetry is ignored (the grid
// always measures both sides where the full search is feasible);
// cfg.Store, when set, overrides the store of every safety cell instead of
// appending the store grid.
func RunMCBench(cfg ExpConfig) (*MCBenchReport, error) {
	rep, err := runMCBench(cfg, mcBenchGrid())
	if err != nil {
		return nil, err
	}
	if err := appendLivenessBench(rep, cfg, livenessBenchCells()); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		if err := appendStoreBench(rep, cfg, storeBenchCells()); err != nil {
			return nil, err
		}
	}
	if err := appendScenarioBench(rep, []string{"smoke", "overload"}); err != nil {
		return nil, err
	}
	if err := appendScalingBench(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// scalingWorkers is the worker grid of the scaling rows: the parallel
// engine pinned to 1, 2, and 4 workers, plus -1 (every core the machine
// has). Row names carry the setting as a "/w<n>" (or "/wmax") suffix so
// CompareMCBench can pair them and watch the wmax/w1 speedup ratio.
var scalingWorkers = []int{1, 2, 4, -1}

// scalingWorkerSuffix renders a worker setting as the scaling rows' name
// suffix.
func scalingWorkerSuffix(w int) string {
	if w < 0 {
		return "wmax"
	}
	return fmt.Sprintf("w%d", w)
}

// appendScalingBench measures how exploration scales with worker count: an
// unreduced safety check of two mid-size cells — big enough that the
// chunked parallel pre-pass dominates, small enough that four worker
// settings stay cheap — at each scalingWorkers setting. The rows feed
// CompareMCBench's scaling tripwire: on a multi-core machine the "wmax"
// row should not fall behind "w1" (the pre-pass is supposed to pay for
// its chunk records), and a regression of that ratio across
// snapshots warns without failing the gate (single-core runners would
// otherwise always fail it).
func appendScalingBench(rep *MCBenchReport) error {
	cells := []mcBenchCell{
		{"bakerypp", specs.Config{N: 4, M: 2}, true},
		{"bakery", specs.Config{N: 4, M: 4}, true},
	}
	none := benchMode{"none", false, false}
	for _, cell := range cells {
		for _, w := range scalingWorkers {
			p, err := specs.Get(cell.algo, cell.cfg)
			if err != nil {
				return err
			}
			res := mc.Check(p, mc.Options{
				Invariants: safetyInvariants(),
				Workers:    w,
			})
			rec := benchRecord(cell.algo, none, w, "exact", res)
			rec.Name = fmt.Sprintf("scale/%s-n%d-m%d/%s", cell.algo, cell.cfg.N, cell.cfg.M, scalingWorkerSuffix(w))
			rep.Records = append(rep.Records, rec)
		}
	}
	return nil
}

// RunMCBenchSmall runs a trimmed safety-only grid — the cells quick enough
// for a CI gate — producing rows whose names match the full grid's, so a
// small run diffs cleanly against a committed full snapshot with
// CompareMCBench (the full snapshot's extra rows show as "only in old").
func RunMCBenchSmall(cfg ExpConfig) (*MCBenchReport, error) {
	rep, err := runMCBench(cfg, []mcBenchCell{
		{"bakerypp", specs.Config{N: 2, M: 2}, true},
		{"bakerypp", specs.Config{N: 3, M: 2}, true},
		{"bakerypp", specs.Config{N: 4, M: 2}, true},
		{"szymanski", specs.Config{N: 3}, true},
	})
	if err != nil {
		return nil, err
	}
	// The smoke scenario is quick enough for the CI gate, and including
	// it makes the committed snapshot's scenario fingerprint and event
	// rate part of the bench-compare tripwire on every PR.
	if err := appendScenarioBench(rep, []string{"smoke"}); err != nil {
		return nil, err
	}
	return rep, nil
}

// storeBenchCell is one store-mode row: a safety check of algo/cfg under
// the given reduction mode and store spec.
type storeBenchCell struct {
	algo  string
	cfg   specs.Config
	mode  benchMode
	store string
}

// storeBenchCells crosses reduction modes with the visited-set tiers on
// the n=4 cell — big enough (1.6M full states) that the tiers' memory
// trade-offs show, small enough that three extra rows stay cheap.
func storeBenchCells() []storeBenchCell {
	c := specs.Config{N: 4, M: 2}
	symPor := benchMode{"symmetry+por", true, true}
	none := benchMode{"none", false, false}
	return []storeBenchCell{
		{"bakerypp", c, symPor, "bitstate"},
		{"bakerypp", c, symPor, "exact,spill"},
		{"bakerypp", c, none, "exact,spill"},
	}
}

// appendStoreBench measures the store tiers. Cells are a parameter so the
// schema test can run a trimmed grid.
func appendStoreBench(rep *MCBenchReport, cfg ExpConfig, cells []storeBenchCell) error {
	for _, cell := range cells {
		so, err := mc.ParseStoreSpec(cell.store)
		if err != nil {
			return err
		}
		p, err := specs.Get(cell.algo, cell.cfg)
		if err != nil {
			return err
		}
		res := mc.Check(p, mc.Options{
			Invariants: safetyInvariants(),
			Workers:    cfg.MCWorkers,
			Symmetry:   cell.mode.sym,
			POR:        cell.mode.por,
			Store:      so,
		})
		rep.Records = append(rep.Records, benchRecord(cell.algo, cell.mode, cfg.MCWorkers, so.String(), res))
	}
	return nil
}

// benchRecord converts one safety-check result into a grid record.
func benchRecord(algo string, mode benchMode, workers int, store string, res *mc.Result) MCBenchRecord {
	secs := res.Elapsed.Seconds()
	rate := 0.0
	if secs > 0 {
		rate = float64(res.States) / secs
	}
	name := fmt.Sprintf("%s-n%d-m%d/%s", algo, res.Prog.N, res.Prog.M, mode.name)
	if store != "exact" {
		name += "/" + store
	}
	return MCBenchRecord{
		Name:         name,
		Algo:         algo,
		N:            res.Prog.N,
		M:            int(res.Prog.M),
		Workers:      workers,
		Reduction:    mode.name,
		Symmetry:     mode.sym,
		Applied:      res.Symmetry,
		POR:          mode.por,
		PORApplied:   res.POR,
		Store:        store,
		States:       res.States,
		Transitions:  res.Transitions,
		Verdict:      verdict(res),
		Complete:     res.Complete,
		WallSeconds:  secs,
		StatesPerSec: rate,
		PeakRSSKB:    peakRSSKB(),
	}
}

// livenessBenchCell is one starvation-analysis cell of the liveness grid.
type livenessBenchCell struct {
	algo string
	cfg  specs.Config
	full bool // run the unreduced side too
}

// livenessBenchCells is the fixed starvation grid (the FCFS pair is fixed
// inside appendLivenessBench).
func livenessBenchCells() []livenessBenchCell {
	return []livenessBenchCell{
		{"bakerypp", specs.Config{N: 3, M: 2}, true},
		{"bakerypp", specs.Config{N: 4, M: 2}, false},
	}
}

// appendLivenessBench measures the liveness analyses across reduction
// modes: E7's starvation question with and without a symmetry request
// (which the cycle analysis does not apply: it runs on the dead-cursor-reset
// graph either way, and the row's symmetry_applied says so), and
// the FCFS monitor on concrete and pinned-orbit keys. Cells are a
// parameter so the schema test can run a trimmed grid.
func appendLivenessBench(rep *MCBenchReport, cfg ExpConfig, cells []livenessBenchCell) error {
	record := func(name, algo string, c specs.Config, mode string, workers int, sym, applied bool,
		states, transitions int, verdict string, complete bool, secs float64) {
		rate := 0.0
		if secs > 0 {
			rate = float64(states) / secs
		}
		rep.Records = append(rep.Records, MCBenchRecord{
			Name: name, Algo: algo, N: c.N, M: c.M,
			Analysis: mode, Workers: workers,
			Reduction: map[bool]string{false: "none", true: "symmetry"}[sym],
			Symmetry:  sym, Applied: applied,
			Store:  "exact",
			States: states, Transitions: transitions,
			Verdict: verdict, Complete: complete,
			WallSeconds: secs, StatesPerSec: rate,
			PeakRSSKB: peakRSSKB(),
		})
	}
	for _, c := range cells {
		for _, sym := range []bool{false, true} {
			if !sym && !c.full {
				continue
			}
			p, err := specs.Get(c.algo, c.cfg)
			if err != nil {
				return err
			}
			start := time.Now()
			g, err := mc.BuildGraph(p, mc.Options{Workers: cfg.MCWorkers, Symmetry: sym})
			if err != nil {
				return err
			}
			slow := p.N - 1
			l1 := p.LabelIndex("l1")
			fast := make([]int, 0, p.N-1)
			for pid := 0; pid < p.N; pid++ {
				if pid != slow {
					fast = append(fast, pid)
				}
			}
			found := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
				return pr.PC(s, slow) == l1
			}, fast) != nil
			verdict := "no cycle"
			if found {
				verdict = "cycle"
			}
			mode := map[bool]string{false: "none", true: "symmetry"}[sym]
			record(fmt.Sprintf("%s-n%d-m%d/starve/%s", c.algo, c.cfg.N, c.cfg.M, mode),
				c.algo, c.cfg, "starve", cfg.MCWorkers, sym, g.Summary.Symmetry,
				g.NumStates(), g.Summary.Transitions, verdict, g.Summary.Complete,
				time.Since(start).Seconds())
		}
	}
	for _, sym := range []bool{false, true} {
		c := specs.Config{N: 3, M: 2}
		p, err := specs.Get("bakerypp", c)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := mc.CheckFCFS(p, 2, 0, mc.Options{Symmetry: sym})
		if err != nil {
			return err
		}
		verdict := "holds"
		if !res.Holds {
			verdict = "VIOLATED"
		}
		// CheckFCFS always runs sequentially; recording Workers 0 keeps the
		// machine-readable surface honest about which engine produced it.
		mode := map[bool]string{false: "none", true: "symmetry"}[sym]
		record(fmt.Sprintf("bakerypp-n%d-m%d/fcfs/%s", c.N, c.M, mode),
			"bakerypp", c, "fcfs", 0, sym, res.Symmetry,
			res.States, 0, verdict, res.Complete, time.Since(start).Seconds())
	}
	return nil
}

func runMCBench(cfg ExpConfig, grid []mcBenchCell) (*MCBenchReport, error) {
	rep := &MCBenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	store := mc.StoreOptions{}
	if cfg.Store != nil {
		store = *cfg.Store
	}
	for _, cell := range grid {
		for _, mode := range benchModes(cell.fullToo) {
			p, err := specs.Get(cell.algo, cell.cfg)
			if err != nil {
				return nil, err
			}
			res := mc.Check(p, mc.Options{
				Invariants: safetyInvariants(),
				Workers:    cfg.MCWorkers,
				Symmetry:   mode.sym,
				POR:        mode.por,
				Store:      store,
			})
			rep.Records = append(rep.Records, benchRecord(cell.algo, mode, cfg.MCWorkers, store.String(), res))
		}
	}
	return rep, nil
}

// WriteMCBenchJSON runs the grid and writes the report to path.
func WriteMCBenchJSON(path string, cfg ExpConfig) (*MCBenchReport, error) {
	rep, err := RunMCBench(cfg)
	if err != nil {
		return nil, err
	}
	if err := WriteBenchJSON(path, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteBenchJSON writes a report as indented JSON to path.
func WriteBenchJSON(path string, rep *MCBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
