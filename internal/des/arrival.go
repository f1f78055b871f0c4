package des

// Arrival processes and service-time distributions for the lock-service
// scenario layer: seeded integer-valued draws in virtual-time ticks, one
// independent stream per (seed, stream) pair, deterministic by
// construction — the same contract as the latency models. A Dist is
// every draw of a scenario workload: interarrival gaps (open loop), think
// times (closed loop) and critical-section hold times.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Dist is one seeded distribution over positive virtual-time durations.
// Draw consumes the distribution's private stream, so a Dist is NOT safe
// for concurrent use: every simulation shard owns fresh instances.
type Dist interface {
	// Name returns the canonical spec string ParseDist accepts to
	// rebuild this distribution (modulo seed).
	Name() string
	// Mean returns the configured mean in ticks (before the >= 1
	// clamping Draw applies, which biases tiny means slightly up).
	Mean() float64
	// Draw returns the next duration, always >= 1.
	Draw() int64
}

// distRNG is a private xorshift64 stream with float helpers.
type distRNG struct{ s uint64 }

func newDistRNG(seed int64, stream uint64) *distRNG {
	return &distRNG{s: seed64(seed, stream)}
}

func (r *distRNG) next() uint64 {
	r.s = xorshift64(r.s)
	return r.s
}

// u01 returns a uniform draw in (0, 1]; strictly positive so inverse
// transforms may take its logarithm.
func (r *distRNG) u01() float64 {
	return float64(r.next()>>11+1) / (1 << 53)
}

// normal returns a standard normal draw via Box-Muller (the cosine half;
// the sine half is deliberately discarded to keep the stream consumption
// rate fixed per draw).
func (r *distRNG) normal() float64 {
	u1, u2 := r.u01(), r.u01()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// clampTick rounds a real-valued duration to the >= 1 tick grid.
func clampTick(x float64) int64 {
	v := int64(math.Round(x))
	if v < 1 {
		return 1
	}
	return v
}

// fixedDist: every draw is the same gap (a paced, deterministic client).
type fixedDist struct{ d int64 }

func (f fixedDist) Name() string  { return fmt.Sprintf("fixed:%d", f.d) }
func (f fixedDist) Mean() float64 { return float64(f.d) }
func (f fixedDist) Draw() int64   { return f.d }

// poissonDist draws exponential interarrival gaps — the memoryless
// arrival process of an open-loop Poisson client fleet.
type poissonDist struct {
	mean int64
	rng  *distRNG
}

func (p *poissonDist) Name() string  { return fmt.Sprintf("poisson:%d", p.mean) }
func (p *poissonDist) Mean() float64 { return float64(p.mean) }
func (p *poissonDist) Draw() int64 {
	return clampTick(-math.Log(p.rng.u01()) * float64(p.mean))
}

// uniformDist draws uniformly from [a, b].
type uniformDist struct {
	a, b int64
	rng  *distRNG
}

func (u *uniformDist) Name() string  { return fmt.Sprintf("uniform:%d,%d", u.a, u.b) }
func (u *uniformDist) Mean() float64 { return float64(u.a+u.b) / 2 }
func (u *uniformDist) Draw() int64 {
	if u.b == u.a {
		return u.a
	}
	return u.a + int64(u.rng.next()%uint64(u.b-u.a+1))
}

// burstDist is the Gamma-burst arrival process: gamma-distributed gaps
// with the configured mean and coefficient of variation cv >= 1. A cv
// well above 1 (shape 1/cv² well below 1) concentrates most draws near
// zero with rare huge gaps — i.e. dense request bursts separated by
// quiet spells, the heavy-traffic regime where lock queues spike.
type burstDist struct {
	mean, cv int64
	shape    float64 // 1/cv²
	scale    float64 // mean·cv²
	rng      *distRNG
}

func (g *burstDist) Name() string  { return fmt.Sprintf("burst:%d,%d", g.mean, g.cv) }
func (g *burstDist) Mean() float64 { return float64(g.mean) }
func (g *burstDist) Draw() int64 {
	return clampTick(g.gamma(g.shape) * g.scale)
}

// gamma draws a Gamma(a, 1) variate by Marsaglia-Tsang squeeze
// rejection, with the standard boost for shape below 1.
func (g *burstDist) gamma(a float64) float64 {
	if a < 1 {
		// Gamma(a) = Gamma(a+1) · U^(1/a).
		return g.gamma(a+1) * math.Pow(g.rng.u01(), 1/a)
	}
	d := a - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.rng.normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.rng.u01()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// bimodalDist mixes two exponential modes: short draws with mean a most
// of the time, long draws with mean b for pctB percent of draws — the
// classic bimodal hold-time workload (quick lookups, occasional
// full-table scans holding the lock orders of magnitude longer).
type bimodalDist struct {
	a, b, pctB int64
	rng        *distRNG
}

func (m *bimodalDist) Name() string {
	return fmt.Sprintf("bimodal:%d,%d,%d", m.a, m.b, m.pctB)
}

func (m *bimodalDist) Mean() float64 {
	p := float64(m.pctB) / 100
	return (1-p)*float64(m.a) + p*float64(m.b)
}

func (m *bimodalDist) Draw() int64 {
	mean := m.a
	if int64(m.rng.next()%100) < m.pctB {
		mean = m.b
	}
	return clampTick(-math.Log(m.rng.u01()) * float64(mean))
}

// ParseDist builds a seeded arrival-process / duration distribution from
// its spec string:
//
//	fixed:<d>            every draw is d ticks
//	poisson:<mean>       exponential gaps (Poisson arrivals) with this mean
//	uniform:<a>,<b>      uniform on [a, b]
//	burst:<mean>,<cv>    Gamma gaps with this mean and CV = cv (cv >> 1 =
//	                     dense bursts separated by long quiet spells)
//	bimodal:<a>,<b>,<p>  exponential mean a, except p%% of draws use mean b
//
// The (seed, stream) pair seeds the private draw stream; pass the run
// seed and a distinct stream id per distribution instance so shards and
// classes draw independently yet reproducibly.
func ParseDist(spec string, seed int64, stream uint64) (Dist, error) {
	kind, body, _ := strings.Cut(spec, ":")
	args, err := distArgs(body)
	if err != nil {
		return nil, fmt.Errorf("des: bad dist spec %q: %v", spec, err)
	}
	bad := func(want string) (Dist, error) {
		return nil, fmt.Errorf("des: bad dist spec %q (want %s)", spec, want)
	}
	switch kind {
	case "fixed":
		if len(args) != 1 || args[0] < 1 {
			return bad("fixed:<d> with d >= 1")
		}
		return fixedDist{args[0]}, nil
	case "poisson":
		if len(args) != 1 || args[0] < 1 {
			return bad("poisson:<mean> with mean >= 1")
		}
		return &poissonDist{mean: args[0], rng: newDistRNG(seed, stream)}, nil
	case "uniform":
		if len(args) != 2 || args[0] < 1 || args[1] < args[0] {
			return bad("uniform:<a>,<b> with 1 <= a <= b")
		}
		return &uniformDist{a: args[0], b: args[1], rng: newDistRNG(seed, stream)}, nil
	case "burst":
		if len(args) != 2 || args[0] < 1 || args[1] < 1 || args[1] > 64 {
			return bad("burst:<mean>,<cv> with mean >= 1, 1 <= cv <= 64")
		}
		cv := float64(args[1])
		return &burstDist{
			mean: args[0], cv: args[1],
			shape: 1 / (cv * cv), scale: float64(args[0]) * cv * cv,
			rng: newDistRNG(seed, stream),
		}, nil
	case "bimodal":
		if len(args) != 3 || args[0] < 1 || args[1] < 1 || args[2] < 0 || args[2] > 100 {
			return bad("bimodal:<a>,<b>,<pct> with a,b >= 1 and 0 <= pct <= 100")
		}
		return &bimodalDist{a: args[0], b: args[1], pctB: args[2], rng: newDistRNG(seed, stream)}, nil
	default:
		return nil, fmt.Errorf("des: unknown dist kind %q (want fixed, poisson, uniform, burst, or bimodal)", kind)
	}
}

func distArgs(body string) ([]int64, error) {
	if body == "" {
		return nil, fmt.Errorf("missing arguments")
	}
	parts := strings.Split(body, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("argument %q is not an integer", p)
		}
		out[i] = v
	}
	return out, nil
}
