// Command perfbench is the repository benchmark. It runs one workload for
// a fixed wall-clock budget, checks every verdict the program produces,
// and prints one JSON result line as the last line of standard output.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see mcbench.go and fleet.go for the inputs and why each was
// chosen):
//
//	safety-full     unreduced safety checks, sequential engine
//	safety-full-w2  the same checks on the parallel engine, two workers
//	reduced         safety checks under symmetry + partial-order reduction
//	fleet           lock-service scenario runs on the discrete-event kernel
//
// A round runs each operation of the workload once: every model-checking
// cell in an order drawn from the seed, or one scenario run whose seed is
// drawn from it. One untimed warm-up round runs first; then rounds repeat
// until --seconds have passed. Every operation's output is checked.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, and the spans recorded at each layer
// boundary are written to .bench_build/trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, so the first, cold builds do not set the figure.
const setupReps = 201

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: safety-full, safety-full-w2, reduced or fleet")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Int("seconds", 10, "how long the timed rounds run, in seconds")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics and write spans; 0 = end-to-end metrics")
	)
	flag.Parse()
	newBench, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	case *seconds < 1 || *seconds > 120:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds %d out of range [1,120]\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}

	res, err := measure(*name, newBench, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench is one workload's inputs. The seed reaches them through the
// random source handed to round.
type bench interface {
	// round returns the operations of the next round.
	round(rng *rand.Rand) []op
	// finish runs the checks that follow the timed rounds (determinism
	// re-runs) and returns an error for any wrong output.
	finish(tr *tracer, root int) error
	// layers runs the traced per-layer passes and returns the workload's
	// per-layer metrics, given the statistics of the timed rounds. Its
	// spans hang under the span root.
	layers(tr *tracer, root int, rounds []roundStats) (map[string]float64, error)
}

// op is one operation: a model-checking run or a scenario run. It returns
// the work it did (states stored, events executed) and an error when its
// output is wrong.
type op struct {
	name string
	run  func(tr *tracer, span int) (items int64, err error)
}

type opStats struct {
	name      string
	wall      time.Duration
	items     int64
	peakHeap  uint64
	gcCycles  uint64
	allocated uint64
}

type roundStats struct{ ops []opStats }

// byName groups a per-operation figure by operation name over the rounds.
func byName(rounds []roundStats, f func(opStats) float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rounds {
		for _, o := range r.ops {
			out[o.name] = append(out[o.name], f(o))
		}
	}
	return out
}

// itemsPerSec is the work rate of a typical round: the median work over
// the median wall time of each operation, summed over the operations, so
// one disturbed check does not move the figure.
func itemsPerSec(rounds []roundStats) float64 {
	items := byName(rounds, func(o opStats) float64 { return float64(o.items) })
	walls := byName(rounds, func(o opStats) float64 { return o.wall.Seconds() })
	var sumItems, sumWall float64
	for name := range items {
		sumItems += median(items[name])
		sumWall += median(walls[name])
	}
	return sumItems / sumWall
}

func (r roundStats) peakHeap() uint64 {
	var peak uint64
	for _, o := range r.ops {
		peak = max(peak, o.peakHeap)
	}
	return peak
}

func (r roundStats) sum(f func(opStats) uint64) uint64 {
	var total uint64
	for _, o := range r.ops {
		total += f(o)
	}
	return total
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session carries one run's counters across its operations.
type session struct {
	tr        *tracer
	heap      *heapSampler
	gc        []metrics.Sample
	attempted int
	failed    int
}

// runOp runs one operation on a freshly collected heap, so no operation
// pays for the garbage of the one before it.
func (s *session) runOp(o op, parent int) opStats {
	runtime.GC()
	gc0, alloc0 := s.gcCounters()
	s.heap.reset()
	span := s.tr.begin(o.name, parent)
	start := time.Now()
	items, err := o.run(s.tr, span)
	wall := time.Since(start)
	s.tr.end(span)
	peak := s.heap.peak()
	gc1, alloc1 := s.gcCounters()
	s.attempted++
	if err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong output: %v\n", o.name, err)
	}
	return opStats{name: o.name, wall: wall, items: items, peakHeap: peak,
		gcCycles: gc1 - gc0, allocated: alloc1 - alloc0}
}

func (s *session) gcCounters() (cycles, allocated uint64) {
	metrics.Read(s.gc)
	return s.gc[0].Value.Uint64(), s.gc[1].Value.Uint64()
}

func measure(name string, newBench func() (bench, error), seed int64, budget time.Duration, trace bool) (*result, error) {
	var (
		b          bench
		setupTimes []float64
	)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		b, err = newBench()
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}

	tr := &tracer{on: trace, t0: time.Now()}
	s := &session{
		tr:   tr,
		heap: startHeapSampler(),
		gc: []metrics.Sample{
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
	defer s.heap.close()
	root := tr.begin("run:"+name, -1)
	rng := rand.New(rand.NewSource(seed))

	warm := tr.begin("warmup", root)
	for _, o := range b.round(rng) {
		s.runOp(o, warm)
	}
	tr.end(warm)

	var rounds []roundStats
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < budget {
		span := tr.begin("round", root)
		var r roundStats
		for _, o := range b.round(rng) {
			r.ops = append(r.ops, s.runOp(o, span))
		}
		tr.end(span)
		rounds = append(rounds, r)
	}

	correct := true
	if err := b.finish(tr, root); err != nil {
		correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
	}

	res := &result{Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	if trace {
		layerSpan := tr.begin("layers", root)
		layer, err := b.layers(tr, layerSpan, rounds)
		tr.end(layerSpan)
		if err != nil {
			return nil, fmt.Errorf("%s: layer pass: %w", name, err)
		}
		layer["gc_cycles_per_round"] = median(perRound(rounds, func(r roundStats) float64 {
			return float64(r.sum(func(o opStats) uint64 { return o.gcCycles }))
		}))
		layer["alloc_mb_per_round"] = median(perRound(rounds, func(r roundStats) float64 {
			return float64(r.sum(func(o opStats) uint64 { return o.allocated })) / (1 << 20)
		}))
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
		}
	} else {
		var walls []float64
		for _, r := range rounds {
			for _, o := range r.ops {
				walls = append(walls, float64(o.wall)/float64(time.Millisecond))
			}
		}
		res.Metrics["work_per_s"] = metric{itemsPerSec(rounds), "1/s"}
		res.Metrics["verdict_ms"] = metric{median(walls), "ms"}
		res.Metrics["peak_heap_mb"] = metric{median(perRound(rounds, func(r roundStats) float64 {
			return float64(r.peakHeap()) / (1 << 20)
		})), "MB"}
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
	}
	tr.end(root)

	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", k)
		}
	}
	if trace {
		if err := tr.write(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", name, seed))); err != nil {
			return nil, err
		}
	}
	res.Correct = correct && s.failed == 0 && s.attempted > 0
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds, %d ops, %d failed\n",
		name, seed, len(rounds), s.attempted, s.failed)
	return res, nil
}

// perLayerMetrics lists every per-layer metric in the order BENCHMARK.json
// declares them; a workload leaves the other family's metrics at 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"mc_states_per_round", "count"},
	{"mc_succs_per_state", "ratio"},
	{"mc_fresh_pct", "%"},
	{"mc_engine_ns_per_state", "ns"},
	{"gcl_succ_ns_per_state", "ns"},
	{"gcl_key_ns_per_succ", "ns"},
	{"mc_inv_ns_per_state", "ns"},
	{"mc_rest_ns_per_state", "ns"},
	{"scn_events_per_op", "count"},
	{"scn_events_per_grant", "ratio"},
	{"scn_resets_per_mgrant", "count"},
	{"scn_ns_per_event", "ns"},
	{"des_kernel_ns_per_event", "ns"},
	{"gcl_step_ns_per_event", "ns"},
	{"scn_replay_ns_per_record", "ns"},
	{"gc_cycles_per_round", "count"},
	{"alloc_mb_per_round", "MB"},
}

func perRound(rounds []roundStats, f func(roundStats) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapSampler records the high-water mark of heap object bytes while an
// operation runs, sampled every heapSamplePeriod from its own goroutine
// and once more when the operation ends.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
	now  []metrics.Sample // read by the measuring goroutine only
}

const (
	heapMetric       = "/memory/classes/heap/objects:bytes"
	heapSamplePeriod = 5 * time.Millisecond
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), now: []metrics.Sample{{Name: heapMetric}}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				h.raise(sample[0].Value.Uint64())
			}
		}
	}()
	return h
}

func (h *heapSampler) raise(v uint64) {
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapSampler) current() uint64 {
	metrics.Read(h.now)
	return h.now[0].Value.Uint64()
}

func (h *heapSampler) reset() { h.max.Store(h.current()) }

func (h *heapSampler) peak() uint64 {
	h.raise(h.current())
	return h.max.Load()
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// tracer keeps spans in memory and writes them out when the run ends. A
// span's parent is the span that caused it; -1 marks the root. When off,
// begin and end do nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t.on && id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// busy sums the durations of the spans named name under parent.
func (t *tracer) busy(name string, parent int) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.Parent == parent {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

var workloads = map[string]func() (bench, error){
	"safety-full":    func() (bench, error) { return newMCBench(fullCells(), 0, false) },
	"safety-full-w2": func() (bench, error) { return newMCBench(fullCells(), 2, false) },
	"reduced":        func() (bench, error) { return newMCBench(reducedCells(), 0, true) },
	"fleet":          newFleetBench,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
