package scenario

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"strconv"
	"sync"

	"bakerypp/internal/des"
	"bakerypp/internal/gcl"
	"bakerypp/internal/preempt"
	"bakerypp/internal/specs"
)

// Options controls how a scenario executes. The zero value is usable:
// seed 0, unit latency, sequential shards, default event bound, no
// recording. Every field except Record and Workers feeds the result;
// Workers never does — the determinism contract.
type Options struct {
	// Seed feeds every random stream of the run (arrival gaps, hold
	// draws, scheduler choice, latency jitter). Same (spec, seed) ⇒
	// byte-identical tables.
	Seed int64
	// Latency is the des.ParseModel spec pricing worker protocol
	// actions; "" means unit.
	Latency string
	// Workers sizes the shard worker pool: 0 runs sequentially,
	// negative uses GOMAXPROCS. The result is identical for any value.
	Workers int
	// MaxEvents bounds one shard's event count (0 = a generous default
	// scaled to the shard's client quota); hitting it truncates the
	// shard deterministically, stranding unserved requests.
	MaxEvents int64
	// Record, when non-nil, receives the full event log of the run
	// (des log grammar, kind "scenario") after all shards complete, in
	// canonical shard order.
	Record io.Writer
}

// request is one in-flight client: its class, arrival instant, and the
// critical-section hold time drawn at arrival.
type request struct {
	class  int32
	arrive int64
	hold   int64
}

// Run executes the scenario and returns the merged result. Shards are
// independent simulations seeded from (Seed, shard), so they run on a
// worker pool and merge in canonical shard order — the tables are
// byte-identical for any Options.Workers and GOMAXPROCS.
func Run(spec *Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	latency := opts.Latency
	if latency == "" {
		latency = "unit"
	}
	if _, err := des.ParseModel(latency, 0); err != nil {
		return nil, err
	}
	quotas := spec.quotas()

	accs := make([]*accum, spec.Shards)
	errs := make([]error, spec.Shards)
	var recorded [][]des.Rec
	if opts.Record != nil {
		recorded = make([][]des.Rec, spec.Shards)
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > spec.Shards {
		workers = spec.Shards
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for shard := range jobs {
				sim, err := newShardSim(spec, shard, quotas, latency, opts)
				if err == nil {
					sim.run()
					accs[shard] = sim.acc
					if recorded != nil {
						recorded[shard] = sim.rec
					}
				}
				errs[shard] = err
			}
		}()
	}
	for shard := 0; shard < spec.Shards; shard++ {
		jobs <- shard
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := newResult(spec, opts.Seed, latency)
	for _, acc := range accs {
		acc.mergeInto(res)
	}
	if opts.Record != nil {
		if err := writeLog(opts.Record, spec, opts.Seed, latency, recorded, res.Fingerprint()); err != nil {
			return nil, fmt.Errorf("scenario: writing event log: %w", err)
		}
	}
	return res, nil
}

// shardSim is one shard's event loop: N worker processes running the
// arbitration protocol on a des.Kernel, fed by per-class open- or
// closed-loop arrival streams through an optional admission gate and a
// FIFO request queue. The whole struct is allocated up front — including one
// scheduling closure per worker and per class and both state buffers —
// so the per-event path allocates nothing once the kernel heap and
// request ring reach steady size (pinned by TestScenarioHotPathAllocs).
type shardSim struct {
	spec  *Spec
	prog  *gcl.Prog
	k     *des.Kernel
	model des.Model
	admit *des.TokenBucket
	buf   gcl.SuccBuf // guard and effect evaluation context only; never carves states
	state gcl.State
	next  gcl.State // the successor buffer exec applies into, then swaps with state
	rng   uint64

	// Label indices of the noncritical and critical sections, resolved
	// once so exec compares ints.
	ncs, cs int

	// Worker processes (pids 0..N-1).
	idle         []bool
	blocked      []bool
	cur          []request
	pendingClass []des.Class
	execFns      []func()

	// Per-class arrival machinery (kernel pids N..N+classes-1). A
	// closed-loop class has up to N arrivals scheduled at once, one per
	// thinking client; pending counts them so the quota is never
	// overspent.
	arrivalD  []des.Dist
	holdD     []des.Dist
	quota     []int64
	closed    []bool
	pending   []int64
	arriveFns []func()

	// FIFO request queue (a growable ring).
	queue []request
	qhead int
	qlen  int

	acc       *accum
	rec       []des.Rec // recording buffer; nil when not recording
	recording bool
	maxEvents int64
}

// streamFor gives every (shard, class, role) triple its own des RNG
// stream id; role 0 is the arrival process, role 1 the hold times.
// Validate bounds classes (< 2^21) and shards (<= 2^20) below the shift.
func streamFor(shard, ci, role int) uint64 {
	return uint64(shard)<<24 | uint64(ci)<<1 | uint64(role)
}

func newShardSim(spec *Spec, shard int, quotas [][]int64, latency string, opts Options) (*shardSim, error) {
	prog, err := specs.Get(spec.Algo, specs.Config{N: spec.N, M: spec.M})
	if err != nil {
		return nil, err
	}
	model, err := des.ParseModel(latency, opts.Seed*1000003+int64(shard))
	if err != nil {
		return nil, err
	}
	admit, err := des.ParseAdmission(spec.Admit)
	if err != nil {
		return nil, err
	}
	s := &shardSim{
		spec:  spec,
		prog:  prog,
		k:     des.NewKernel(),
		model: model,
		admit: admit,
		state: prog.InitState(),
		next:  make(gcl.State, prog.StateLen()),
		rng:   preempt.Seed64(opts.Seed, 0xA11CE+shard),
		ncs:   prog.LabelIndex("ncs"),
		cs:    prog.LabelIndex("cs"),

		idle:         make([]bool, spec.N),
		blocked:      make([]bool, spec.N),
		cur:          make([]request, spec.N),
		pendingClass: make([]des.Class, spec.N),
		execFns:      make([]func(), spec.N),

		arrivalD:  make([]des.Dist, len(spec.Classes)),
		holdD:     make([]des.Dist, len(spec.Classes)),
		quota:     make([]int64, len(spec.Classes)),
		closed:    make([]bool, len(spec.Classes)),
		pending:   make([]int64, len(spec.Classes)),
		arriveFns: make([]func(), len(spec.Classes)),

		queue:     make([]request, 64),
		acc:       newAccum(spec),
		recording: opts.Record != nil,
	}
	var clients int64
	for ci, c := range spec.Classes {
		arrival, closed := c.arrivalDist()
		s.closed[ci] = closed
		s.arrivalD[ci], err = des.ParseDist(arrival, opts.Seed, streamFor(shard, ci, 0))
		if err != nil {
			return nil, err
		}
		s.holdD[ci], err = des.ParseDist(c.Hold, opts.Seed, streamFor(shard, ci, 1))
		if err != nil {
			return nil, err
		}
		s.quota[ci] = quotas[ci][shard]
		clients += s.quota[ci]
		ci := ci
		s.arriveFns[ci] = func() { s.arrival(ci) }
	}
	for pid := 0; pid < spec.N; pid++ {
		s.idle[pid] = true
		pid := pid
		s.execFns[pid] = func() { s.exec(pid) }
	}
	s.maxEvents = opts.MaxEvents
	if s.maxEvents <= 0 {
		// A runaway bound, not a budget: far above what any correct
		// protocol spends per client even at N=64 with wake cascades.
		s.maxEvents = 2000*clients + 100_000
	}
	return s, nil
}

// run drains the shard: the arrival streams self-perpetuate until their
// quotas run out, and the kernel stops when no work remains (or the
// event bound trips, stranding whatever is still queued).
func (s *shardSim) run() {
	s.start()
	for s.k.Executed() < s.maxEvents && s.k.Step() {
	}
}

// start schedules each class's first arrivals: one for an open-loop
// stream, one per client (N) for a closed-loop class.
func (s *shardSim) start() {
	for ci := range s.quota {
		clients := 1
		if s.closed[ci] {
			clients = s.spec.N
		}
		for i := 0; i < clients; i++ {
			s.rearm(ci)
		}
	}
}

// rearm schedules class ci's next arrival one arrival draw from now,
// unless the scheduled arrivals already cover the remaining quota.
func (s *shardSim) rearm(ci int) {
	if s.quota[ci] > s.pending[ci] {
		s.pending[ci]++
		s.k.At(s.spec.N+ci, s.arrivalD[ci].Draw(), s.arriveFns[ci])
	}
}

// arrival fires one client arrival of class ci: count it, pass it
// through admission, and either enqueue it or turn it away. An open-loop
// class then schedules its next arrival; a closed-loop client thinks
// again only once served (or right away if turned away).
func (s *shardSim) arrival(ci int) {
	now := s.k.Now()
	s.acc.arrive(ci)
	if s.recording {
		s.rec = append(s.rec, fleetRec(now, s.spec.N, ci, "arrive:"+s.spec.Classes[ci].Name))
	}
	s.quota[ci]--
	s.pending[ci]--
	rejected := s.admit != nil && !s.admit.Admit(now)
	if rejected {
		s.acc.reject(ci)
		if s.recording {
			s.rec = append(s.rec, fleetRec(now, s.spec.N, ci, "reject:"+s.spec.Classes[ci].Name))
		}
	} else {
		s.enqueue(request{class: int32(ci), arrive: now, hold: s.holdD[ci].Draw()})
	}
	if rejected || !s.closed[ci] {
		s.rearm(ci)
	}
}

// enqueue hands the request to the lowest idle worker, or queues it.
// Idle workers sit at ncs, where the try branch is unguarded, so an
// idle worker is never blocked.
func (s *shardSim) enqueue(req request) {
	for w := 0; w < s.spec.N; w++ {
		if s.idle[w] {
			s.idle[w] = false
			s.cur[w] = req
			s.schedule(w, des.Step, 0)
			return
		}
	}
	if s.qlen == len(s.queue) {
		grown := make([]request, 2*len(s.queue))
		for i := 0; i < s.qlen; i++ {
			grown[i] = s.queue[(s.qhead+i)%len(s.queue)]
		}
		s.queue = grown
		s.qhead = 0
	}
	s.queue[(s.qhead+s.qlen)%len(s.queue)] = req
	s.qlen++
}

func (s *shardSim) schedule(w int, class des.Class, units int64) {
	s.pendingClass[w] = class
	s.k.At(w, s.model.Cost(class, w, units), s.execFns[w])
}

// enabled is the allocation-free guard check: EnabledMask evaluates the
// guards through buf's scratch context.
func (s *shardSim) enabled(pid int) bool {
	return s.prog.EnabledMask(s.state, pid, &s.buf) != 0
}

// wake re-schedules, in pid order, every parked worker whose guard
// became true, so blocked spans end at the earliest enabling action,
// deterministically. exec calls it only after a branch that may write a
// shared cell: a parked worker's guard was false when it parked and
// reads only shared cells and that worker's own (unchanged) locals, so
// no other step can enable it.
func (s *shardSim) wake() {
	for pid := 0; pid < s.spec.N; pid++ {
		if s.blocked[pid] && s.enabled(pid) {
			s.blocked[pid] = false
			s.schedule(pid, des.Wait, 0)
		}
	}
}

// exec runs one protocol action of worker w: pick an enabled branch
// (seeded choice under nondeterminism: the k-th enabled branch, k drawn
// only when more than one is enabled), apply it into the spare state
// buffer and swap, emit the record, attribute a grant on cs-enter, and
// schedule what the new label calls for.
func (s *shardSim) exec(w int) {
	mask := s.prog.EnabledMask(s.state, w, &s.buf)
	if mask == 0 {
		// Disabled between scheduling and execution (an earlier event
		// at this instant flipped the guard): park until a wake.
		s.blocked[w] = true
		return
	}
	if n := bits.OnesCount64(mask); n > 1 {
		s.rng = preempt.Xorshift64(s.rng)
		for k := s.rng % uint64(n); k > 0; k-- {
			mask &= mask - 1
		}
	}
	bi := bits.TrailingZeros64(mask)
	li := s.prog.PC(s.state, w)
	overflow := s.prog.ApplyInto(s.next, s.state, w, bi, gcl.ModeUnbounded, &s.buf)
	s.state, s.next = s.next, s.state
	tag := s.prog.BranchTag(li, bi)
	now := s.k.Now()
	r := des.Rec{T: now, Pid: w, Class: s.pendingClass[w], Tag: tag, Overflow: overflow}
	s.acc.Add(r)
	if s.recording {
		s.rec = append(s.rec, r)
	}
	if tag == "cs-enter" {
		req := s.cur[w]
		lat := now - req.arrive
		s.acc.grant(int(req.class), lat)
		if s.recording {
			s.rec = append(s.rec, fleetRec(now, s.spec.N, int(req.class),
				"grant:"+s.spec.Classes[req.class].Name+":"+strconv.FormatInt(lat, 10)))
		}
	}
	label := s.prog.PC(s.state, w)
	switch {
	case label == s.ncs:
		// Back from the exit protocol: the request is served, and its
		// client thinks again if closed loop. Take the next request or
		// go idle.
		if ci := int(s.cur[w].class); s.closed[ci] {
			s.rearm(ci)
		}
		if s.qlen > 0 {
			s.cur[w] = s.queue[s.qhead]
			s.qhead = (s.qhead + 1) % len(s.queue)
			s.qlen--
			s.schedule(w, des.Step, 0)
		} else {
			s.idle[w] = true
		}
	case !s.enabled(w):
		s.blocked[w] = true
	case label == s.cs:
		s.schedule(w, des.Hold, s.cur[w].hold)
	default:
		s.schedule(w, des.Step, 0)
	}
	if s.prog.BranchWritesShared(li, bi) {
		s.wake()
	}
}
