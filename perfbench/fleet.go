package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"bakerypp/internal/des"
	"bakerypp/internal/gcl"
	"bakerypp/internal/scenario"
	"bakerypp/internal/specs"
)

// fleetSpec is the lock-service scenario the fleet workload serves: 40k
// clients of three classes (steady Poisson, CV-4 bursts, bimodal holds)
// over eight Bakery++ shards with four servers each. M=16 is small enough
// that Bakery++'s overflow reset fires every few hundred grants, and there
// is no admission gate, so every request must be granted. One run is about
// a million events.
const fleetSpec = "name=bench;algo=bakerypp;shards=8;n=4;m=16;clients=40000;" +
	"class=gold/1/poisson:40/fixed:4/60;" +
	"class=bulk/2/burst:60,4/poisson:9/300;" +
	"class=batch/1/poisson:90/bimodal:4,60,10/1200"

// fleetWorkers is the shard pool size of the timed runs. Eight shards
// pulled by two workers keep both cores busy, so a run's time does not
// hinge on how contended one core of a shared machine happens to be.
const fleetWorkers = 2

type fleetBench struct {
	spec *scenario.Spec
	prog *gcl.Prog

	// The first run's seed and report fingerprint, for the determinism
	// and replay checks.
	firstSeed int64
	firstFP   string

	events, grants, resets int64
}

func newFleetBench() (bench, error) {
	spec, err := scenario.Parse(fleetSpec)
	if err != nil {
		return nil, err
	}
	prog, err := specs.Get(spec.Algo, specs.Config{N: spec.N, M: spec.M})
	if err != nil {
		return nil, err
	}
	return &fleetBench{spec: spec, prog: prog}, nil
}

func (b *fleetBench) round(rng *rand.Rand) []op {
	seed := rng.Int63()
	return []op{{name: "scenario", run: func(tr *tracer, span int) (int64, error) {
		return b.serve(seed, tr, span)
	}}}
}

func (b *fleetBench) serve(seed int64, tr *tracer, parent int) (int64, error) {
	span := tr.begin("scenario.Run", parent)
	res, err := scenario.Run(b.spec, scenario.Options{Seed: seed, Workers: fleetWorkers})
	tr.end(span)
	if err != nil {
		return 0, err
	}
	if b.firstFP == "" {
		b.firstSeed, b.firstFP = seed, res.Fingerprint()
	}
	b.events += res.Events
	b.grants += res.Grants()
	b.resets += res.Resets
	return res.Events, checkFleet(b.spec, res)
}

// checkFleet checks a run's report against what Bakery++ guarantees: at
// most one server in a shard's critical section, no register overflow, no
// first-come-first-served inversion, and every request granted.
func checkFleet(spec *scenario.Spec, res *scenario.Result) error {
	switch {
	case res.MaxConcurrency != 1:
		return fmt.Errorf("peak critical-section occupancy %d, want 1", res.MaxConcurrency)
	case res.Overflows != 0:
		return fmt.Errorf("%d register overflows", res.Overflows)
	case res.FCFSViolations != 0:
		return fmt.Errorf("%d FCFS inversions", res.FCFSViolations)
	case res.Stranded() != 0 || res.Grants() != spec.Clients:
		return fmt.Errorf("%d of %d requests granted, %d stranded", res.Grants(), spec.Clients, res.Stranded())
	}
	return nil
}

// finish re-runs the first run's seed sequentially: the report must be
// identical for any worker count.
func (b *fleetBench) finish(tr *tracer, root int) error {
	span := tr.begin("check.determinism", root)
	defer tr.end(span)
	res, err := scenario.Run(b.spec, scenario.Options{Seed: b.firstSeed})
	if err != nil {
		return err
	}
	if fp := res.Fingerprint(); fp != b.firstFP {
		return fmt.Errorf("seed %d: report fingerprint %s sequentially, %s with %d workers", b.firstSeed, fp, b.firstFP, fleetWorkers)
	}
	return nil
}

// layers splits an event's cost across the layers a scenario run calls:
// the event kernel and the protocol step, each driven directly at the
// workload's shape, and the accumulator behind bakeryreplay, timed on a
// recording of the first run (whose replay must reproduce its report).
func (b *fleetBench) layers(tr *tracer, root int, rounds []roundStats) (map[string]float64, error) {
	var wall time.Duration
	var events int64
	perOp := make([]float64, len(rounds))
	for i, r := range rounds {
		for _, o := range r.ops {
			wall += o.wall
			events += o.items
			perOp[i] += float64(o.items)
		}
	}
	opEvents := int64(median(perOp))

	var log bytes.Buffer
	span := tr.begin("scenario.Run+record", root)
	_, err := scenario.Run(b.spec, scenario.Options{Seed: b.firstSeed, Record: &log})
	tr.end(span)
	if err != nil {
		return nil, err
	}
	records := bytes.Count(log.Bytes(), []byte{'\n'})
	span = tr.begin("scenario.ReplayLog", root)
	rep, err := scenario.ReplayLog(bytes.NewReader(log.Bytes()))
	tr.end(span)
	if err != nil {
		return nil, err
	}
	if !rep.OK() || rep.Fingerprint != b.firstFP {
		return nil, fmt.Errorf("replay fingerprint %s, recorded %s, live %s", rep.Fingerprint, rep.Recorded, b.firstFP)
	}
	replay := tr.busy("scenario.ReplayLog", root)

	kernel := kernelPass(tr, root, b.spec.N+len(b.spec.Classes), opEvents)
	step := stepPass(tr, root, b.prog, opEvents)

	return map[string]float64{
		"scn_events_per_op":        float64(opEvents),
		"scn_events_per_grant":     float64(b.events) / float64(b.grants),
		"scn_resets_per_mgrant":    1e6 * float64(b.resets) / float64(b.grants),
		"scn_ns_per_event":         float64(wall) / float64(events),
		"des_kernel_ns_per_event":  float64(kernel) / float64(opEvents),
		"gcl_step_ns_per_event":    float64(step) / float64(opEvents),
		"scn_replay_ns_per_record": float64(replay) / float64(records),
	}, nil
}

// kernelPass runs events events through one des.Kernel holding pids
// self-rescheduling processes — the occupancy of a scenario shard's
// kernel (one pending event per server and per arrival stream) — and
// returns the time taken.
func kernelPass(tr *tracer, root, pids int, events int64) time.Duration {
	k := des.NewKernel()
	rng := uint64(0x9E3779B97F4A7C15)
	fns := make([]func(), pids)
	for pid := range fns {
		pid := pid
		fns[pid] = func() {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			k.At(pid, int64(rng%16)+1, fns[pid])
		}
		k.At(pid, int64(pid), fns[pid])
	}
	span := tr.begin("des.Kernel", root)
	for k.Executed() < events && k.Step() {
	}
	tr.end(span)
	return tr.busy("des.Kernel", root)
}

// stepPass executes events protocol actions on one shard's program,
// servers taking turns, each action followed by the guard check a
// scenario shard makes to decide whether the server is now blocked — the
// per-event protocol work — and returns the time taken.
func stepPass(tr *tracer, root int, p *gcl.Prog, events int64) time.Duration {
	state := p.InitState()
	var buf gcl.SuccBuf
	span := tr.begin("gcl.step", root)
	for i := int64(0); i < events; i++ {
		pid := int(i % int64(p.N))
		buf.Reset()
		p.SuccsInto(state, pid, gcl.ModeUnbounded, &buf)
		if succs := buf.Succs(); len(succs) > 0 {
			copy(state, succs[int(i)%len(succs)].State)
		}
		p.EnabledMask(state, pid, &buf)
	}
	tr.end(span)
	return tr.busy("gcl.step", root)
}
