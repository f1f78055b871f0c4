package scenario

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bakerypp/internal/specs"
)

// testSpec is a small but non-trivial scenario: three client classes
// (Poisson, Gamma-burst, bimodal hold) over four shards with admission
// control — every feature of the layer exercised at test-suite scale.
const testSpec = "name=mix;algo=bakerypp;shards=4;n=4;m=64;clients=6000;admit=token:900,32;" +
	"class=gold/1/poisson:40/fixed:4/60;" +
	"class=bulk/2/burst:60,4/poisson:9/300;" +
	"class=batch/1/poisson:90/bimodal:4,60,10/1200"

// closedSpec exercises closed-loop classes: two shards of three server
// processes, one class re-requesting right after service and one after
// exponential think time.
const closedSpec = "name=closed;algo=bakerypp;shards=2;n=3;m=4;clients=144;" +
	"class=busy/1/closed:fixed:1/fixed:3/100;" +
	"class=think/1/closed:poisson:30/fixed:3/200"

func mustParse(t testing.TB, text string) *Spec {
	t.Helper()
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecRoundTrip(t *testing.T) {
	for _, text := range []string{testSpec, closedSpec} {
		s := mustParse(t, text)
		if got := s.String(); got != text {
			t.Errorf("String() = %q, want the canonical input back:\n%q", got, text)
		}
		s2 := mustParse(t, s.String())
		if s2.String() != s.String() {
			t.Errorf("Parse(String()) not a fixed point")
		}
	}
}

func TestSpecParseErrors(t *testing.T) {
	for _, text := range []string{
		"",
		"name=x",
		"name=x;algo=nope;shards=1;n=4;m=8;clients=10;class=a/1/poisson:9/fixed:2/50",
		"name=x;algo=bakerypp;shards=0;n=4;m=8;clients=10;class=a/1/poisson:9/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=1;m=8;clients=10;class=a/1/poisson:9/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=0;class=a/1/poisson:9/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;class=a/0/poisson:9/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;class=a/1/warp:9/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;class=a/1/closed:/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;class=a/1/closed:closed:fixed:1/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;class=a/1/closed:poisson:09/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;class=a/1/poisson:9/closed:fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;class=a/1/poisson:9/fixed:2/0",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;class=a/1/poisson:9/fixed:2/50;class=a/1/poisson:9/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;admit=leaky:3,4;class=a/1/poisson:9/fixed:2/50",
		"name=x;name=y;algo=bakerypp;shards=1;n=4;m=8;clients=10;class=a/1/poisson:9/fixed:2/50",
		"name=x;algo=bakerypp;shards=1;n=4;m=8;clients=10;bogus=1;class=a/1/poisson:9/fixed:2/50",
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) did not error", text)
		}
	}
}

func TestQuotasConserveClients(t *testing.T) {
	s := mustParse(t, testSpec)
	q := s.quotas()
	var total int64
	for _, perShard := range q {
		for _, v := range perShard {
			total += v
		}
	}
	if total != s.Clients {
		t.Errorf("quotas assign %d clients, spec says %d", total, s.Clients)
	}
}

// TestRunSmoke checks the basic accounting identities of a run: every
// arrival is rejected, granted, or stranded; nothing is stranded for a
// correct algorithm; mutual exclusion holds; the FCFS monitor is silent
// for Bakery++.
func TestRunSmoke(t *testing.T) {
	s := mustParse(t, testSpec)
	res, err := Run(s, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals int64
	for i := range res.Classes {
		c := &res.Classes[i]
		arrivals += c.Arrivals
		if c.Stranded() != 0 {
			t.Errorf("class %s stranded %d requests", c.Name, c.Stranded())
		}
		if c.Grants > 0 && c.Latency.Count() != uint64(c.Grants) {
			t.Errorf("class %s: %d grants but %d latency samples", c.Name, c.Grants, c.Latency.Count())
		}
	}
	if arrivals != s.Clients {
		t.Errorf("saw %d arrivals, spec says %d clients", arrivals, s.Clients)
	}
	if res.Grants() == 0 {
		t.Fatal("run granted nothing")
	}
	if res.MaxConcurrency > 1 {
		t.Errorf("mutual exclusion violated: max cs occupancy %d", res.MaxConcurrency)
	}
	if res.FCFSViolations != 0 {
		t.Errorf("bakery++ showed %d FCFS inversions; its doorway order forbids any", res.FCFSViolations)
	}
	if j := res.Jain(); j <= 0 || j > 1 {
		t.Errorf("Jain index %v outside (0, 1]", j)
	}
}

// TestAdmissionRejects: with a tight token bucket the run must turn
// requests away, and loosening only the bucket must strictly reduce
// rejections.
func TestAdmissionRejects(t *testing.T) {
	tight := mustParse(t, "name=adm;algo=bakerypp;shards=1;n=4;m=64;clients=4000;admit=token:200,8;class=a/1/poisson:10/fixed:3/200")
	loose := mustParse(t, "name=adm;algo=bakerypp;shards=1;n=4;m=64;clients=4000;admit=token:100000,64;class=a/1/poisson:10/fixed:3/200")
	rt, err := Run(tight, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(loose, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Classes[0].Rejected == 0 {
		t.Error("tight bucket rejected nothing at 5x its sustained rate")
	}
	if rl.Classes[0].Rejected >= rt.Classes[0].Rejected {
		t.Errorf("loose bucket rejected %d >= tight %d", rl.Classes[0].Rejected, rt.Classes[0].Rejected)
	}
}

// TestWorkerCountIrrelevant is the determinism contract: the rendered
// tables and fingerprint are byte-identical whether shards run
// sequentially or on every core, and on one core or many.
func TestWorkerCountIrrelevant(t *testing.T) {
	s := mustParse(t, testSpec)
	run := func(workers int) string {
		res, err := Run(s, Options{Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	seq := run(0)
	for _, workers := range []int{1, 3, -1} {
		if rep := run(workers); rep != seq {
			t.Fatalf("workers=%d report differs from sequential:\n%s\nvs\n%s", workers, rep, seq)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if rep := run(-1); rep != seq {
		t.Fatalf("GOMAXPROCS=1 report differs from sequential:\n%s\nvs\n%s", rep, seq)
	}
}

// TestSeedMatters: different seeds must not produce the same tables (or
// the streams are not actually consumed).
func TestSeedMatters(t *testing.T) {
	s := mustParse(t, testSpec)
	a, err := Run(s, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("seeds 1 and 2 produced identical fingerprints")
	}
}

// TestRecordReplayRoundTrip: for every registered algorithm, open- and
// closed-loop, a recorded run under a jittered latency model must replay
// bit-identically — same tables, same fingerprint — from the log alone,
// and the recorded bytes themselves must not depend on the worker count.
func TestRecordReplayRoundTrip(t *testing.T) {
	for _, algo := range specs.Names() {
		t.Run(algo, func(t *testing.T) {
			for _, text := range []string{testSpec, closedSpec} {
				s := mustParse(t, strings.Replace(text, "algo=bakerypp", "algo="+algo, 1))
				opts := Options{Seed: 5, Latency: "jitter:1,3"}
				var seq, par bytes.Buffer
				opts.Record = &seq
				res, err := Run(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Events == 0 || res.Grants() == 0 {
					t.Errorf("%s: recorded run executed %d events, %d grants", s.Name, res.Events, res.Grants())
				}
				opts.Workers, opts.Record = -1, &par
				if _, err := Run(s, opts); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(seq.Bytes(), par.Bytes()) {
					t.Fatalf("%s: recorded log bytes differ between sequential and parallel runs", s.Name)
				}
				rep, err := ReplayLog(bytes.NewReader(seq.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Fatalf("%s: replay fingerprint %s != recorded %s", s.Name, rep.Fingerprint, rep.Recorded)
				}
				if rep.Result.String() != res.String() {
					t.Errorf("%s: replayed report differs from the live run's", s.Name)
				}
			}
		})
	}
}

// TestReplayRejectsGarbage: truncated or foreign logs fail loudly.
func TestReplayRejectsGarbage(t *testing.T) {
	s := mustParse(t, testSpec)
	var buf bytes.Buffer
	if _, err := Run(s, Options{Seed: 5, Record: &buf}); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	lines := strings.Split(strings.TrimSuffix(full, "\n"), "\n")
	truncated := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if _, err := ReplayLog(strings.NewReader(truncated)); err == nil {
		t.Error("replay accepted a log with no trailer")
	}
	for i, l := range lines {
		if strings.HasPrefix(l, "[") && strings.Contains(l, `"cs-enter"`) {
			tampered := strings.Join(append(lines[:i:i], lines[i+1:]...), "\n") + "\n"
			if rep, err := ReplayLog(strings.NewReader(tampered)); err == nil && rep.OK() {
				t.Error("replay of a log missing one cs-enter event matched the recorded fingerprint")
			}
			break
		}
	}
	if _, err := ReplayLog(strings.NewReader(`{"v":1,"kind":"des-sweep"}` + "\n")); err == nil {
		t.Error("replay accepted a des-sweep log")
	}
	if _, err := ReplayLog(strings.NewReader("")); err == nil {
		t.Error("replay accepted an empty log")
	}
}

// TestLatencyModelShapesTime: every latency model runs and stays
// deterministic (same seed twice ⇒ same fingerprint), a fixed:3 clock
// runs slower than unit on the same scenario, and an unknown model is
// refused.
func TestLatencyModelShapesTime(t *testing.T) {
	s := mustParse(t, "name=lat;algo=bakerypp;shards=1;n=3;m=7;clients=90;class=c/1/closed:fixed:1/fixed:4/100")
	run := func(latency string) *Result {
		res, err := Run(s, Options{Seed: 5, Latency: latency})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, latency := range []string{"unit", "fixed:3", "jitter:2,4", "classes:step=2;hold=exp(9);think=uniform(1,5)"} {
		if a, b := run(latency), run(latency); a.Fingerprint() != b.Fingerprint() {
			t.Errorf("latency %q: same seed produced different fingerprints", latency)
		}
	}
	if unit, fixed := run("unit"), run("fixed:3"); fixed.Time <= unit.Time {
		t.Errorf("fixed:3 time %d not above unit time %d — the model does not price actions", fixed.Time, unit.Time)
	}
	if _, err := Run(s, Options{Latency: "warp:9"}); err == nil {
		t.Error("unknown latency model did not error")
	}
}

// TestClosedLoopThinkTime: a closed-loop client thinks between requests,
// so exponential think time of mean 100 serves the same requests as
// re-requesting after one tick, in well over twice the virtual time and
// with a lighter acquire tail. A client turned away by admission thinks
// and asks again, so the class still spends its whole quota.
func TestClosedLoopThinkTime(t *testing.T) {
	const specFmt = "name=cl;algo=bakerypp;shards=1;n=2;m=7;clients=100;%sclass=c/1/closed:%s/fixed:4/100"
	run := func(admit, think string) *Result {
		s := mustParse(t, fmt.Sprintf(specFmt, admit, think))
		res, err := Run(s, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if c := &res.Classes[0]; c.Arrivals != s.Clients || c.Stranded() != 0 {
			t.Errorf("%s: %d arrivals, %d stranded; want %d and 0", s, c.Arrivals, c.Stranded(), s.Clients)
		}
		return res
	}
	sustained, poisson := run("", "fixed:1"), run("", "poisson:100")
	if sustained.Grants() != poisson.Grants() {
		t.Fatalf("think times disagree on grants: %d vs %d", sustained.Grants(), poisson.Grants())
	}
	if poisson.Time < 2*sustained.Time {
		t.Errorf("poisson:100 think time %d not well above fixed:1 %d — think times are not being drawn", poisson.Time, sustained.Time)
	}
	if p, s := poisson.Classes[0].Latency.Quantile(0.99), sustained.Classes[0].Latency.Quantile(0.99); p > s {
		t.Errorf("poisson:100 acq p99 %d above fixed:1 %d — thinking clients should rarely queue", p, s)
	}
	if rejected := run("admit=token:5,1;", "fixed:1").Classes[0].Rejected; rejected == 0 {
		t.Error("tight token bucket rejected no closed-loop request")
	}
}

// FuzzScenarioSpec is the issue's fuzz target for the spec grammar: an
// accepted input must render canonically, re-parse to the same spec,
// and never panic.
func FuzzScenarioSpec(f *testing.F) {
	f.Add(testSpec)
	f.Add("name=x;algo=bakery;shards=1;n=2;m=8;clients=10;class=a/1/poisson:9/fixed:2/50")
	f.Add("name=x;algo=modbakery;shards=2;n=3;m=12;clients=99;admit=token:5,5;class=a/3/uniform:2,9/fixed:1/9;class=b/1/burst:50,3/poisson:4/70")
	f.Add(closedSpec)
	f.Add("name=;algo=;shards=;class=")
	f.Add("n=2;m=3")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not re-parse: %v", canon, text, err)
		}
		if s2.String() != canon {
			t.Fatalf("String() not a fixed point: %q -> %q", canon, s2.String())
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("re-parsed spec fails validation: %v", err)
		}
	})
}

// TestScenarioHotPathAllocs is the perf contract on the per-event path:
// once the kernel heap and request ring reach steady size, executing
// events allocates nothing (pre-created closures, two state buffers
// swapped per step, fixed-size histograms).
func TestScenarioHotPathAllocs(t *testing.T) {
	s := mustParse(t, "name=allocs;algo=bakerypp;shards=1;n=4;m=64;clients=2000000;class=a/1/poisson:30/fixed:4/100;class=b/1/poisson:50/poisson:6/200")
	quotas := s.quotas()
	sim, err := newShardSim(s, 0, quotas, "unit", Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sim.start()
	// Warm up: let the queue ring and kernel heap reach steady state.
	for i := 0; i < 50_000 && sim.k.Step(); i++ {
	}
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 2000; i++ {
			if !sim.k.Step() {
				t.Fatal("shard drained mid-measurement; enlarge the client quota")
			}
		}
	})
	if avg != 0 {
		t.Errorf("per-event hot path allocates: %.2f allocs per 2000-event chunk, want 0", avg)
	}
}

// TestParkedWorkersStayDisabled pins the invariant exec's write-gated
// wake relies on: after every event, every parked worker's guard is
// false. A wake skipped after a step that did write a shared cell leaves
// a worker parked although enabled, which this catches at that event.
func TestParkedWorkersStayDisabled(t *testing.T) {
	for _, algo := range specs.Names() {
		for _, arrival := range []string{"poisson:6", "closed:fixed:1"} {
			s := mustParse(t, fmt.Sprintf("name=park;algo=%s;shards=1;n=3;m=5;clients=400;class=a/1/%s/fixed:3/100", algo, arrival))
			sim, err := newShardSim(s, 0, s.quotas(), "jitter:1,3", Options{Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			sim.start()
			parked := 0
			for sim.k.Step() {
				for pid, blocked := range sim.blocked {
					if !blocked {
						continue
					}
					parked++
					if sim.prog.EnabledMask(sim.state, pid, &sim.buf) != 0 {
						t.Fatalf("%s %s: event %d left worker %d parked at %s with an enabled branch",
							algo, arrival, sim.k.Executed(), pid, sim.prog.PCLabel(sim.state, pid))
					}
				}
			}
			if parked == 0 {
				t.Errorf("%s %s: no worker was ever parked; the check is vacuous", algo, arrival)
			}
		}
	}
}
