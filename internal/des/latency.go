// Package des is a discrete-event simulation kernel for the preemption
// and contention harness: a monotonic virtual-time event queue with
// deterministic tie-breaking on (time, pid, seq), pluggable per-action
// latency models, and a recorded event log with a stable JSON-lines
// encoding that replays bit-identically.
//
// The package sits below internal/preempt (the PR 2 Sequencer is a thin
// adapter over Sim with the unit model) and below internal/scenario
// (each scenario shard runs a spec program as an event loop on a
// Kernel). It imports only the standard library so every other layer can
// build on it without cycles.
package des

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Class labels the kind of action a latency cost is charged for. Every
// scheduled event carries the class of the action whose completion it
// models; latency models map (class, pid, work) to a virtual-time cost.
type Class uint8

const (
	// Start is the initial grant of a participant (its arrival).
	Start Class = iota
	// Preempt is a voluntary yield at a preemption point.
	Preempt
	// Wait is a blocked wait (spin on a gate or a ticket) being
	// re-granted, or in a scenario event loop the wake of a worker
	// whose guard became true.
	Wait
	// Spin is an elapsed stretch of busy work of `work` units.
	Spin
	// Step is one protocol action (a doorway write, a ticket scan).
	Step
	// Hold is time spent inside the critical section (`work` units).
	Hold
	// Think is non-critical time between attempts (`work` units).
	Think

	numClasses = int(Think) + 1
)

var classNames = [numClasses]string{
	"start", "preempt", "wait", "spin", "step", "hold", "think",
}

func (c Class) String() string {
	if int(c) < numClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Model maps an action to its virtual-time cost. Cost must be >= 1 and
// depend only on its arguments and the model's own (seeded) state, never
// on wall time — the determinism contract of every sweep and scenario
// fingerprint.
// Work is the size of the action in abstract units (spin iterations,
// hold ticks, a drawn interarrival gap); classes with no natural size
// pass 0. Models are NOT safe for concurrent use: each simulation cell
// owns a fresh instance seeded from the cell seed.
type Model interface {
	// Name returns the canonical spec string that ParseModel would
	// accept to rebuild this model (modulo seed).
	Name() string
	// Cost returns the virtual-time cost of one action.
	Cost(c Class, pid int, work int64) int64
}

// Unit returns the unit-latency model: every action costs exactly one
// tick regardless of class or size, except sized classes (Spin, Hold,
// Think) which cost max(1, work). Under this model the Sim grant
// sequence reproduces the PR 2 Sequencer's one-step-per-grant schedule
// exactly, which is what pins the Sequencer adapter equivalence test.
func Unit() Model { return unitModel{} }

type unitModel struct{}

func (unitModel) Name() string { return "unit" }

func (unitModel) Cost(c Class, pid int, work int64) int64 {
	if sized(c) && work > 1 {
		return work
	}
	return 1
}

// Fixed returns a model charging d ticks per action, scaled by work for
// sized classes. d < 1 is clamped to 1.
func Fixed(d int64) Model {
	if d < 1 {
		d = 1
	}
	return fixedModel{d}
}

type fixedModel struct{ d int64 }

func (m fixedModel) Name() string { return fmt.Sprintf("fixed:%d", m.d) }

func (m fixedModel) Cost(c Class, pid int, work int64) int64 {
	if sized(c) && work > 1 {
		return m.d * work
	}
	return m.d
}

// Jitter returns a model charging base plus a seeded uniform draw in
// [0, spread] per action, with independent per-pid streams so that the
// cost sequence one participant observes does not depend on how many
// others run. Sized classes scale the base by work and draw the jitter
// once (the whole stretch lands on one queue insertion, not per unit).
func Jitter(base, spread int64, seed int64) Model {
	if base < 1 {
		base = 1
	}
	if spread < 0 {
		spread = 0
	}
	return &jitterModel{base: base, spread: spread, seed: seed}
}

type jitterModel struct {
	base, spread int64
	seed         int64
	streams      []uint64
}

func (m *jitterModel) Name() string {
	return fmt.Sprintf("jitter:%d,%d", m.base, m.spread)
}

func (m *jitterModel) Cost(c Class, pid int, work int64) int64 {
	cost := m.base
	if sized(c) && work > 1 {
		cost = m.base * work
	}
	if m.spread > 0 {
		cost += int64(m.stream(pid) % uint64(m.spread+1))
	}
	return cost
}

func (m *jitterModel) stream(pid int) uint64 {
	for len(m.streams) <= pid {
		m.streams = append(m.streams, seed64(m.seed, uint64(len(m.streams))+1))
	}
	v := xorshift64(m.streams[pid])
	m.streams[pid] = v
	return v
}

// dist is one per-class cost distribution of a class model.
type dist struct {
	kind string // "const", "uniform", "exp"
	a, b int64  // const: a; uniform: [a, b]; exp: mean a
}

func (d dist) String() string {
	switch d.kind {
	case "uniform":
		return fmt.Sprintf("uniform(%d,%d)", d.a, d.b)
	case "exp":
		return fmt.Sprintf("exp(%d)", d.a)
	default:
		return strconv.FormatInt(d.a, 10)
	}
}

// classModel charges each action class from its own distribution, with
// independent seeded per-pid streams. Classes without an explicit
// distribution fall back to const 1.
type classModel struct {
	dists   [numClasses]dist
	set     [numClasses]bool
	seed    int64
	order   []Class // spec order, for Name()
	streams []uint64
}

func (m *classModel) Name() string {
	parts := make([]string, 0, len(m.order))
	for _, c := range m.order {
		parts = append(parts, fmt.Sprintf("%s=%s", c, m.dists[c]))
	}
	return "classes:" + strings.Join(parts, ";")
}

func (m *classModel) Cost(c Class, pid int, work int64) int64 {
	d := dist{kind: "const", a: 1}
	if int(c) < numClasses && m.set[c] {
		d = m.dists[c]
	}
	var cost int64
	switch d.kind {
	case "uniform":
		cost = d.a
		if span := d.b - d.a; span > 0 {
			cost += int64(m.stream(pid) % uint64(span+1))
		}
	case "exp":
		// Exponential with mean a via inverse transform on a
		// 53-bit uniform; the +1 keeps u strictly positive.
		u := float64(m.stream(pid)>>11+1) / (1 << 53)
		cost = int64(math.Round(-math.Log(u) * float64(d.a)))
	default:
		cost = d.a
	}
	if sized(c) && work > 1 {
		cost *= work
	}
	if cost < 1 {
		cost = 1
	}
	return cost
}

func (m *classModel) stream(pid int) uint64 {
	for len(m.streams) <= pid {
		m.streams = append(m.streams, seed64(m.seed, uint64(len(m.streams))+0x51))
	}
	v := xorshift64(m.streams[pid])
	m.streams[pid] = v
	return v
}

// sized reports whether a class's work argument scales its cost.
func sized(c Class) bool { return c == Spin || c == Hold || c == Think }

// ParseModel builds a latency model from its spec string:
//
//	unit                         one tick per action (the Sequencer schedule)
//	fixed:<d>                    d ticks per action
//	jitter:<base>,<spread>       base + seeded uniform [0, spread]
//	classes:<c>=<dist>;...       per-class distributions, where <dist> is
//	                             <k> | uniform(<a>,<b>) | exp(<mean>)
//	                             and <c> is one of start, preempt, wait,
//	                             spin, step, hold, think
//
// Example: "classes:step=2;hold=exp(12);think=uniform(0,80)". The seed
// feeds the model's private draw streams; pass the cell seed so every
// cell is independent yet reproducible.
func ParseModel(spec string, seed int64) (Model, error) {
	switch {
	case spec == "" || spec == "unit":
		return Unit(), nil
	case strings.HasPrefix(spec, "fixed:"):
		d, err := strconv.ParseInt(spec[len("fixed:"):], 10, 64)
		if err != nil || d < 1 {
			return nil, fmt.Errorf("des: bad fixed latency spec %q (want fixed:<d> with d >= 1)", spec)
		}
		return Fixed(d), nil
	case strings.HasPrefix(spec, "jitter:"):
		parts := strings.Split(spec[len("jitter:"):], ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("des: bad jitter latency spec %q (want jitter:<base>,<spread>)", spec)
		}
		base, err1 := strconv.ParseInt(parts[0], 10, 64)
		spread, err2 := strconv.ParseInt(parts[1], 10, 64)
		if err1 != nil || err2 != nil || base < 1 || spread < 0 {
			return nil, fmt.Errorf("des: bad jitter latency spec %q (want base >= 1, spread >= 0)", spec)
		}
		return Jitter(base, spread, seed), nil
	case strings.HasPrefix(spec, "classes:"):
		return parseClassModel(spec[len("classes:"):], seed)
	default:
		return nil, fmt.Errorf("des: unknown latency model %q (want unit, fixed:<d>, jitter:<b>,<s>, or classes:...)", spec)
	}
}

func parseClassModel(body string, seed int64) (Model, error) {
	m := &classModel{seed: seed}
	for _, part := range strings.Split(body, ";") {
		name, spec, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("des: bad class latency entry %q (want <class>=<dist>)", part)
		}
		c, err := parseClass(name)
		if err != nil {
			return nil, err
		}
		d, err := parseDist(spec)
		if err != nil {
			return nil, err
		}
		if m.set[c] {
			return nil, fmt.Errorf("des: class %q specified twice", name)
		}
		m.dists[c] = d
		m.set[c] = true
		m.order = append(m.order, c)
	}
	if len(m.order) == 0 {
		return nil, fmt.Errorf("des: empty classes latency spec")
	}
	return m, nil
}

func parseClass(name string) (Class, error) {
	for i, n := range classNames {
		if n == name {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("des: unknown action class %q", name)
}

func parseDist(spec string) (dist, error) {
	switch {
	case strings.HasPrefix(spec, "uniform(") && strings.HasSuffix(spec, ")"):
		parts := strings.Split(spec[len("uniform("):len(spec)-1], ",")
		if len(parts) != 2 {
			return dist{}, fmt.Errorf("des: bad uniform dist %q (want uniform(<a>,<b>))", spec)
		}
		a, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		b, err2 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err1 != nil || err2 != nil || a < 0 || b < a {
			return dist{}, fmt.Errorf("des: bad uniform dist %q (want 0 <= a <= b)", spec)
		}
		return dist{kind: "uniform", a: a, b: b}, nil
	case strings.HasPrefix(spec, "exp(") && strings.HasSuffix(spec, ")"):
		mean, err := strconv.ParseInt(spec[len("exp("):len(spec)-1], 10, 64)
		if err != nil || mean < 1 {
			return dist{}, fmt.Errorf("des: bad exp dist %q (want exp(<mean>) with mean >= 1)", spec)
		}
		return dist{kind: "exp", a: mean}, nil
	default:
		k, err := strconv.ParseInt(spec, 10, 64)
		if err != nil || k < 1 {
			return dist{}, fmt.Errorf("des: bad const dist %q (want an integer >= 1)", spec)
		}
		return dist{kind: "const", a: k}, nil
	}
}

// seed64 expands (seed, stream) into a well-mixed 64-bit state via the
// splitmix64 finalizer. A private copy of preempt.Seed64: des sits below
// preempt in the import graph and cannot borrow it.
func seed64(seed int64, stream uint64) uint64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}

// xorshift64 advances a non-zero xorshift state. Private copy of
// preempt.Xorshift64 for the same layering reason as seed64.
func xorshift64(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}
