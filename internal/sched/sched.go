// Package sched executes gcl programs under controlled schedulers — the
// repository's instrument for the paper's operational claims: how fast
// tickets grow under sustained contention (Section 3's overflow scenario),
// how often Bakery++ resets near the register bound (Section 7's "price of
// guaranteeing that no overflows ever occur"), first-come-first-served
// behaviour, and what actually happens when classic Bakery's registers wrap
// (mutual-exclusion violations, observable and countable).
//
// Unlike the model checker, which explores all interleavings of a small
// configuration, the simulator walks one long interleaving of an arbitrary
// configuration, chosen by a pluggable scheduler: round-robin, seeded
// uniform random, or biased (the Section 6.3 "extremely slow process
// against two processes that are quite fast").
package sched

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"bakerypp/internal/gcl"
)

// xorshiftSource is the repository-owned rand.Source64 behind every
// simulation run: xorshift64* seeded through the splitmix64 finalizer.
// math/rand's default source is deterministic only by the informal Go 1
// compatibility promise; this one is pinned by this file, so a recorded
// fingerprint reproduces on any platform, GOMAXPROCS, and Go release.
type xorshiftSource struct{ s uint64 }

func (x *xorshiftSource) Seed(seed int64) {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	x.s = z
}

func (x *xorshiftSource) Uint64() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s * 0x2545F4914F6CDD1D
}

func (x *xorshiftSource) Int63() int64 { return int64(x.Uint64() >> 1) }

// NewRNG returns the seeded random source simulation runs draw from.
// cmd/bakerysim routes -sched random/biased through this, which is what
// makes its printed fingerprint a portable run identity.
func NewRNG(seed int64) *rand.Rand {
	src := &xorshiftSource{}
	src.Seed(seed)
	return rand.New(src)
}

// Scheduler picks which enabled process steps next.
type Scheduler interface {
	Name() string
	// Pick chooses one element of enabled (non-empty, ascending pids from
	// a program with n processes in total).
	Pick(enabled []int, n int, step int64, rng *rand.Rand) int
}

// RoundRobin rotates priority among processes: at step k, the first enabled
// process at or after position k mod N runs (wrapping), where N is the
// program's process count.
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Pick implements Scheduler. The cursor rotates over the full process
// count, not over the currently enabled pids: rotating on the largest
// enabled pid (as the seed implementation did) skews priority toward
// low-numbered processes whenever high-numbered ones are blocked, which is
// precisely the regime — processes stuck at Bakery++'s L1 gate — the
// round-robin scheduler exists to probe fairly.
func (RoundRobin) Pick(enabled []int, n int, step int64, _ *rand.Rand) int {
	want := int(step % int64(n))
	for _, pid := range enabled {
		if pid >= want {
			return pid
		}
	}
	return enabled[0]
}

// Random picks uniformly among enabled processes.
type Random struct{}

// Name implements Scheduler.
func (Random) Name() string { return "random" }

// Pick implements Scheduler.
func (Random) Pick(enabled []int, _ int, _ int64, rng *rand.Rand) int {
	return enabled[rng.Intn(len(enabled))]
}

// Biased gives each process in Slow a scheduling weight of Weight (< 1)
// relative to the fast processes' weight of 1 — the paper's slow-process
// scenario. Weight 0 freezes the slow processes entirely.
type Biased struct {
	Slow   map[int]bool
	Weight float64
}

// Name implements Scheduler.
func (b Biased) Name() string { return fmt.Sprintf("biased(w=%g)", b.Weight) }

// Pick implements Scheduler.
func (b Biased) Pick(enabled []int, _ int, _ int64, rng *rand.Rand) int {
	total := 0.0
	for _, pid := range enabled {
		if b.Slow[pid] {
			total += b.Weight
		} else {
			total += 1
		}
	}
	if total == 0 {
		return enabled[rng.Intn(len(enabled))]
	}
	x := rng.Float64() * total
	for _, pid := range enabled {
		w := 1.0
		if b.Slow[pid] {
			w = b.Weight
		}
		if x < w {
			return pid
		}
		x -= w
	}
	return enabled[len(enabled)-1]
}

// Options configures a simulation run.
type Options struct {
	// Steps is the number of actions to execute (required, > 0).
	Steps int64
	// Sched defaults to Random{}.
	Sched Scheduler
	// Seed seeds the run's random source; runs are deterministic given
	// (program, options).
	Seed int64
	// Mode is the store semantics: ModeUnbounded for idealised registers,
	// ModeWrap for real b-bit registers (capacity from the program's M).
	Mode gcl.Mode
	// CrashRate is the per-step probability that one eligible process
	// crash-restarts instead of a normal action being scheduled.
	CrashRate float64
	// CrashPids limits which processes may crash (all when empty).
	CrashPids []int
	// SampleEvery, when positive, records the maximum live ticket every
	// that many steps into Stats.TicketSeries — the data behind the
	// ticket-growth "figure" (classic Bakery: unbounded climb; Bakery++:
	// a sawtooth capped at M).
	SampleEvery int64
}

// Stats aggregates everything a run observed.
type Stats struct {
	Prog  string
	Steps int64
	// Deadlocked is set if the run halted early with no enabled process.
	Deadlocked   bool
	DeadlockStep int64

	// Per-process counters, indexed by pid.
	CSEntries   []int64
	Resets      []int64
	Doorways    []int64
	Crashes     []int64
	WaitSum     []int64 // total steps between "try" and cs entry
	WaitMax     []int64
	waitStarted []int64 // internal: step of pending "try", -1 if none

	// Overflow accounting.
	Overflows         int64
	FirstOverflowStep int64 // -1 if none

	// Mutex accounting (meaningful in ModeWrap, where wrapped tickets can
	// break the algorithm).
	MutexViolations    int64 // entries into a >=2-processes-in-cs condition
	FirstViolationStep int64 // -1 if none

	// FCFS accounting: an inversion is an entry to cs by process i while
	// some process j had completed its doorway before i even left ncs.
	FCFSInversions int64

	// MaxTicket is the largest value observed in the shared array
	// "number" (0 if the program has no such array).
	MaxTicket int32

	// TagVisits counts branch-tag occurrences ("try", "doorway-done",
	// "cs-enter", "cs-exit", "reset").
	TagVisits map[string]int64

	// TicketSeries holds the sampled maximum of the shared "number" array
	// (see Options.SampleEvery); empty when sampling is off or the
	// program has no ticket array.
	TicketSeries []int32
}

// Fingerprint returns a short stable hash of everything the run
// observed. Two runs fingerprint equal iff they collected identical
// statistics, so one printed line lets users check that a simulation
// reproduced — across reruns, GOMAXPROCS settings, and machines.
func (st *Stats) Fingerprint() string {
	h := fnv.New64a()
	put := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
		h.Write([]byte{0})
	}
	put("%s/%d/%v/%d", st.Prog, st.Steps, st.Deadlocked, st.DeadlockStep)
	put("%v%v%v%v%v%v", st.CSEntries, st.Resets, st.Doorways, st.Crashes, st.WaitSum, st.WaitMax)
	put("%d/%d/%d/%d/%d/%d", st.Overflows, st.FirstOverflowStep,
		st.MutexViolations, st.FirstViolationStep, st.FCFSInversions, st.MaxTicket)
	tags := make([]string, 0, len(st.TagVisits))
	for tag := range st.TagVisits {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		put("%s=%d", tag, st.TagVisits[tag])
	}
	put("%v", st.TicketSeries)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TotalCS returns the total number of critical-section entries.
func (st *Stats) TotalCS() int64 {
	var n int64
	for _, v := range st.CSEntries {
		n += v
	}
	return n
}

// FairnessRatio returns min/max of per-process CS entries (1 = perfectly
// fair, 0 = someone locked out). Returns 1 when nobody entered.
func (st *Stats) FairnessRatio() float64 {
	min, max := int64(-1), int64(0)
	for _, v := range st.CSEntries {
		if min == -1 || v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 1
	}
	return float64(min) / float64(max)
}

// Run executes one interleaving of p and returns the collected statistics.
func Run(p *gcl.Prog, opts Options) (*Stats, error) {
	if opts.Steps <= 0 {
		return nil, fmt.Errorf("sched: Steps must be positive, got %d", opts.Steps)
	}
	if opts.Sched == nil {
		opts.Sched = Random{}
	}
	rng := NewRNG(opts.Seed)
	crashers := opts.CrashPids
	if opts.CrashRate > 0 && len(crashers) == 0 {
		crashers = make([]int, p.N)
		for pid := range crashers {
			crashers[pid] = pid
		}
	}

	st := &Stats{
		Prog:               p.Name,
		CSEntries:          make([]int64, p.N),
		Resets:             make([]int64, p.N),
		Doorways:           make([]int64, p.N),
		Crashes:            make([]int64, p.N),
		WaitSum:            make([]int64, p.N),
		WaitMax:            make([]int64, p.N),
		waitStarted:        make([]int64, p.N),
		FirstOverflowStep:  -1,
		FirstViolationStep: -1,
		TagVisits:          map[string]int64{},
	}
	for pid := range st.waitStarted {
		st.waitStarted[pid] = -1
	}
	hasNumber := false
	for _, name := range p.SharedNames() {
		if name == "number" {
			hasNumber = true
		}
	}
	hasCS := p.HasLabel("cs")
	// doorwayDone[pid] = step the pid completed its doorway, -1 otherwise.
	// tryStep[pid] = step the pid left ncs (started competing).
	doorwayDone := make([]int64, p.N)
	tryStep := make([]int64, p.N)
	for pid := range doorwayDone {
		doorwayDone[pid] = -1
		tryStep[pid] = -1
	}

	// s is the current state and spare the buffer the next one is written
	// into; the two swap every step. buf is the run's scratch for guards
	// and successors, reset each step, so a steady-state step allocates
	// nothing.
	s := p.InitState()
	spare := make(gcl.State, len(s))
	var buf gcl.SuccBuf
	enabled := make([]int, 0, p.N)
	inCS := 0
	for step := int64(0); step < opts.Steps; step++ {
		if opts.CrashRate > 0 && rng.Float64() < opts.CrashRate {
			pid := crashers[rng.Intn(len(crashers))]
			p.CrashSuccInto(spare, s, pid)
			s, spare = spare, s
			st.Crashes[pid]++
			st.Steps++
			// A crash aborts any pending attempt and doorway.
			tryStep[pid] = -1
			doorwayDone[pid] = -1
			st.waitStarted[pid] = -1
			if hasCS {
				inCS = p.CountAtLabel(s, "cs")
			}
			continue
		}
		enabled = enabled[:0]
		for pid := 0; pid < p.N; pid++ {
			if p.EnabledMask(s, pid, &buf) != 0 {
				enabled = append(enabled, pid)
			}
		}
		if len(enabled) == 0 {
			st.Deadlocked = true
			st.DeadlockStep = step
			break
		}
		pid := opts.Sched.Pick(enabled, p.N, step, rng)
		buf.Reset()
		p.SuccsInto(s, pid, opts.Mode, &buf)
		succs := buf.Succs()
		sc := succs[rng.Intn(len(succs))]
		copy(spare, sc.State)
		s, spare = spare, s
		st.Steps++

		if sc.Overflow {
			st.Overflows++
			if st.FirstOverflowStep < 0 {
				st.FirstOverflowStep = step
			}
		}
		tag := sc.Tag(p)
		if tag != "" {
			st.TagVisits[tag]++
		}
		switch tag {
		case "try":
			tryStep[pid] = step
			st.waitStarted[pid] = step
		case "doorway-done":
			// Only the first doorway completion of an attempt counts;
			// algorithms whose announcement step repeats (Peterson's
			// filter levels) must not look "recently arrived" later.
			if doorwayDone[pid] < 0 {
				doorwayDone[pid] = step
				st.Doorways[pid]++
			}
		case "reset":
			st.Resets[pid]++
		case "cs-enter":
			st.CSEntries[pid]++
			// FCFS: j completed its doorway strictly before pid began
			// competing, yet pid enters first.
			for j := 0; j < p.N; j++ {
				if j != pid && doorwayDone[j] >= 0 && tryStep[pid] >= 0 &&
					doorwayDone[j] < tryStep[pid] {
					st.FCFSInversions++
				}
			}
			doorwayDone[pid] = -1
			if ws := st.waitStarted[pid]; ws >= 0 {
				w := step - ws
				st.WaitSum[pid] += w
				if w > st.WaitMax[pid] {
					st.WaitMax[pid] = w
				}
				st.waitStarted[pid] = -1
			}
		}
		if hasNumber {
			mt := p.MaxShared(s, "number")
			if mt > st.MaxTicket {
				st.MaxTicket = mt
			}
			if opts.SampleEvery > 0 && step%opts.SampleEvery == 0 {
				st.TicketSeries = append(st.TicketSeries, mt)
			}
		}
		if hasCS {
			now := p.CountAtLabel(s, "cs")
			if now >= 2 && inCS < 2 {
				st.MutexViolations++
				if st.FirstViolationStep < 0 {
					st.FirstViolationStep = step
				}
			}
			inCS = now
		}
	}
	return st, nil
}
