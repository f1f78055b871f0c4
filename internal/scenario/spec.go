// Package scenario is the lock-service scenario layer: a simulation of a
// client fleet contending for sharded critical sections arbitrated by a
// bakery-family algorithm, executed as discrete events on the
// internal/des kernel — no goroutine per client, so fleets of millions
// of simulated clients are routine. Client classes arrive open loop (a
// request stream independent of service) or closed loop (each client
// re-requests a think time after its previous request was served).
//
// A scenario is described by a Spec (a canonical, round-trippable string
// grammar), executed by Run, and reported as per-class acquire-latency
// percentiles, SLO attainment, Jain fairness across classes, and
// overflow/reset accounting. Runs are deterministic: the result tables
// are byte-identical for any Options.Workers and GOMAXPROCS, and a
// recorded event log replays bit-identically (cmd/bakeryreplay).
package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"bakerypp/internal/des"
	"bakerypp/internal/specs"
)

// Class is one client class of the fleet: a share of the arrival stream
// with its own arrival process, hold-time distribution and acquire-
// latency objective.
type Class struct {
	// Name labels the class in tables and recorded logs. It may not
	// contain the grammar separators ';', '=', '/' or ':'.
	Name string
	// Weight is the class's share of Spec.Clients (integer weights,
	// normalised over the sum).
	Weight int
	// Arrival is the des.ParseDist spec of the inter-arrival gaps of
	// this class's request stream, per shard (each shard draws an
	// independent stream, so total class load scales with Shards).
	// The form "closed:<dist>" makes the class closed loop instead:
	// each shard keeps N clients of the class, one per server process,
	// and each client's next request arrives a <dist> think time after
	// its previous one was served (the first after one think draw).
	Arrival string
	// Hold is the des.ParseDist spec of critical-section hold times.
	Hold string
	// SLO is the class's acquire-latency objective in virtual-time
	// ticks: a grant within SLO ticks of arrival attains it.
	SLO int64
}

// Spec is a complete scenario description. The zero value is not valid;
// build one by hand and Validate it, or Parse the string grammar.
type Spec struct {
	// Name labels the scenario (tables, logs).
	Name string
	// Algo is the registered arbitration algorithm (specs.Get); it must
	// be Arbitrable (carry the try/doorway-done/cs-enter/cs-exit tags).
	Algo string
	// Shards is the number of independent critical sections; clients
	// are partitioned across shards and each shard is arbitrated by its
	// own instance of Algo. Shards are independent simulations, which
	// is what lets them run in parallel deterministically.
	Shards int
	// N is the arbitration width per shard: the number of server
	// processes taking client requests through the lock protocol.
	N int
	// M is the algorithm's register capacity (Bakery++'s reset bound).
	M int
	// Clients is the total number of simulated client requests across
	// all classes and shards (each class spends its share as its quota).
	Clients int64
	// Admit is the optional des.ParseAdmission spec applied per shard
	// ("" = admit everything).
	Admit string
	// Classes is the fleet mix; at least one.
	Classes []Class
}

// String renders the canonical grammar form: fixed key order, every
// field explicit. Parse(s.String()) reproduces s exactly, and
// Parse(x).String() is a fixed point for any accepted x.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s;algo=%s;shards=%d;n=%d;m=%d;clients=%d",
		s.Name, s.Algo, s.Shards, s.N, s.M, s.Clients)
	if s.Admit != "" {
		fmt.Fprintf(&b, ";admit=%s", s.Admit)
	}
	for _, c := range s.Classes {
		fmt.Fprintf(&b, ";class=%s/%d/%s/%s/%d", c.Name, c.Weight, c.Arrival, c.Hold, c.SLO)
	}
	return b.String()
}

// Parse builds a Spec from the grammar:
//
//	name=<label>;algo=<spec>;shards=<s>;n=<n>;m=<m>;clients=<c>
//	    [;admit=token:<rate>,<burst>]
//	    ;class=<name>/<weight>/<arrival>/<hold>/<slo>[;class=...]
//
// where <hold> is a des.ParseDist spec (fixed:<d>, poisson:<mean>,
// uniform:<a>,<b>, burst:<mean>,<cv>, bimodal:<a>,<b>,<pct>) and
// <arrival> is either such a spec (open loop: the inter-arrival gaps)
// or closed:<dist> (closed loop: the think time; see Class.Arrival).
// Keys may appear in any order; class entries keep their order. The
// result is Validated.
func Parse(text string) (*Spec, error) {
	s := &Spec{}
	seen := map[string]bool{}
	for _, part := range strings.Split(text, ";") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("scenario: bad spec entry %q (want key=value)", part)
		}
		if key != "class" {
			if seen[key] {
				return nil, fmt.Errorf("scenario: key %q specified twice", key)
			}
			seen[key] = true
		}
		var err error
		switch key {
		case "name":
			s.Name = val
		case "algo":
			s.Algo = val
		case "shards":
			s.Shards, err = atoi(val)
		case "n":
			s.N, err = atoi(val)
		case "m":
			s.M, err = atoi(val)
		case "clients":
			s.Clients, err = strconv.ParseInt(val, 10, 64)
		case "admit":
			s.Admit = val
		case "class":
			var c Class
			c, err = parseClass(val)
			s.Classes = append(s.Classes, c)
		default:
			return nil, fmt.Errorf("scenario: unknown spec key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: bad value for %q: %v", key, err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func atoi(v string) (int, error) { return strconv.Atoi(v) }

func parseClass(val string) (Class, error) {
	parts := strings.Split(val, "/")
	if len(parts) != 5 {
		return Class{}, fmt.Errorf("class %q: want <name>/<weight>/<arrival>/<hold>/<slo>", val)
	}
	w, err1 := strconv.Atoi(parts[1])
	slo, err2 := strconv.ParseInt(parts[4], 10, 64)
	if err1 != nil || err2 != nil {
		return Class{}, fmt.Errorf("class %q: weight and slo must be integers", val)
	}
	return Class{Name: parts[0], Weight: w, Arrival: parts[2], Hold: parts[3], SLO: slo}, nil
}

// Validate checks every field against the grammar's and the simulator's
// bounds, including that the arbitration algorithm exists and carries
// the tags the accumulator observes, and that every dist spec parses to
// its canonical form (so String() round-trips).
func (s *Spec) Validate() error {
	if s.Name == "" || strings.ContainsAny(s.Name, ";=/") {
		return fmt.Errorf("scenario: name %q must be non-empty and free of ';', '=', '/'", s.Name)
	}
	if s.Shards < 1 || s.Shards > 1<<20 {
		return fmt.Errorf("scenario: shards %d out of range [1, 2^20]", s.Shards)
	}
	if s.N < 2 || s.N > 64 {
		return fmt.Errorf("scenario: n %d out of range [2, 64]", s.N)
	}
	if s.M < 2 || s.M > 1<<30 {
		return fmt.Errorf("scenario: m %d out of range [2, 2^30]", s.M)
	}
	if s.Clients < 1 || s.Clients > 1<<40 {
		return fmt.Errorf("scenario: clients %d out of range [1, 2^40]", s.Clients)
	}
	p, err := specs.Get(s.Algo, specs.Config{N: s.N, M: s.M})
	if err != nil {
		return fmt.Errorf("scenario: %v", err)
	}
	if !specs.Arbitrable(p) {
		return fmt.Errorf("scenario: algorithm %q lacks the try/doorway-done/cs-enter/cs-exit tags the scenario accumulator observes", s.Algo)
	}
	if _, err := des.ParseAdmission(s.Admit); err != nil {
		return err
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("scenario: at least one class is required")
	}
	totalWeight := 0
	names := map[string]bool{}
	for i, c := range s.Classes {
		if c.Name == "" || strings.ContainsAny(c.Name, ";=/:,") {
			return fmt.Errorf("scenario: class %d name %q must be non-empty and free of ';', '=', '/', ':', ','", i, c.Name)
		}
		if names[c.Name] {
			return fmt.Errorf("scenario: class %q specified twice", c.Name)
		}
		names[c.Name] = true
		if c.Weight < 1 || c.Weight > 1<<20 {
			return fmt.Errorf("scenario: class %q weight %d out of range [1, 2^20]", c.Name, c.Weight)
		}
		totalWeight += c.Weight
		arrival, _ := c.arrivalDist()
		for _, d := range []struct{ role, spec string }{{"arrival", arrival}, {"hold", c.Hold}} {
			dist, err := des.ParseDist(d.spec, 0, 0)
			if err != nil {
				return fmt.Errorf("scenario: class %q %s: %v", c.Name, d.role, err)
			}
			if dist.Name() != d.spec {
				return fmt.Errorf("scenario: class %q %s spec %q is not canonical (want %q)", c.Name, d.role, d.spec, dist.Name())
			}
		}
		if c.SLO < 1 || c.SLO > 1<<40 {
			return fmt.Errorf("scenario: class %q slo %d out of range [1, 2^40]", c.Name, c.SLO)
		}
	}
	if totalWeight > 1<<20 {
		return fmt.Errorf("scenario: class weights sum to %d, above 2^20", totalWeight)
	}
	return nil
}

// arrivalDist splits the class's arrival field into its des.ParseDist
// spec and whether the class is closed loop ("closed:<dist>").
func (c Class) arrivalDist() (spec string, closed bool) {
	return strings.CutPrefix(c.Arrival, "closed:")
}

// quotas splits Clients across classes by weight, then across shards,
// deterministically: per-class totals use floor division with the
// remainder given to the earliest classes; per-shard splits give the
// remainder to the lowest shard indices. Every client is assigned
// exactly once.
func (s *Spec) quotas() [][]int64 {
	totalWeight := 0
	for _, c := range s.Classes {
		totalWeight += c.Weight
	}
	perClass := make([]int64, len(s.Classes))
	var assigned int64
	for i, c := range s.Classes {
		perClass[i] = s.Clients * int64(c.Weight) / int64(totalWeight)
		assigned += perClass[i]
	}
	for i := 0; assigned < s.Clients; i = (i + 1) % len(perClass) {
		perClass[i]++
		assigned++
	}
	out := make([][]int64, len(s.Classes))
	for ci, total := range perClass {
		out[ci] = make([]int64, s.Shards)
		base, extra := total/int64(s.Shards), total%int64(s.Shards)
		for sh := 0; sh < s.Shards; sh++ {
			out[ci][sh] = base
			if int64(sh) < extra {
				out[ci][sh]++
			}
		}
	}
	return out
}
