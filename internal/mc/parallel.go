package mc

// Parallel mode's expansion pre-pass. Check and BuildGraph each run one BFS
// loop that merges one head at a time (see explorer.expansionOf and the
// merge step in mc.go). With Options.Workers >= 2 a worker pool expands
// chunks of queued heads one chunk ahead of that merge: while the merge
// walks chunk k, the pool generates chunk k+1's successors and prepares
// every probe (fingerprints, or canonical keys under symmetry) — the
// expensive, embarrassingly parallel part. The merge then walks each
// pre-expanded head in queue order exactly as it walks a sequentially
// expanded one, making the one authoritative store lookup per successor and
// evaluating the invariants on exactly the fresh states, so state
// numbering, parents, edge order, invariant calls, stop conditions and
// store accounting — and with them every downstream analysis — are
// identical for any worker count.
//
// The workers touch neither the visited store nor the slab and parent
// column the merge grows. A chunk's heads are captured on the merge
// goroutine when the chunk launches, as stored: each slab entry as a
// sub-slice of its packed payload and tail, carrying its block's width at
// capture. The slab never writes those words again — a growing first block
// is copied and a widening re-encodes the open block into a new one,
// leaving the old ones to the captured heads, and a spilled block stays
// mapped as long as the slab's arena lives. Each worker decodes its own
// heads — restoring them from key and tail under symmetry — into its
// scratch, so no decoding runs on the merge. Everything else a worker
// writes is its chunk's own scratch and records. Two chunk buffers
// alternate: cur, whose records the merge is walking, and next, in flight
// on the pool. Each owns its workers' scratch, so expanding next never
// recycles memory the merge of cur still reads.
// The merge joins next when it reaches it, and Check and BuildGraph join it
// and stop the pool on every return (explorer.join), early stops included.
//
// The pool's goroutines start at the first launch and live until that
// stop. Between chunks a worker, and the merge in join, spins for up to
// spinFor, yielding the processor, before it blocks: a worker that blocked
// would wait for its thread to be woken at every launch, and a chunk of
// maxChunk heads is short enough for that delay to cost throughput.
//
// Profiling: the pool goroutines run under the runtime/pprof labels
// "mc-stage"=expand and "mc-worker"=<index>; see the Performance section of
// docs/model-checking.md.

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bakerypp/internal/gcl"
)

const (
	// maxChunk is how many queued heads one pre-pass chunk covers: wide
	// enough to amortise the hand-off between the merge and the pool (a
	// full chunk is about 0.1–0.25 ms of expansion), narrow enough that a
	// bounded run (MaxStates, early violation stop) wastes at most one
	// chunk of speculative expansion. It also bounds the pre-pass's memory:
	// workers claim heads dynamically, so one worker can take nearly a
	// whole chunk and its scratch grows to hold that chunk's successors and
	// probe records — two buffers × Workers × one chunk of records at peak.
	// Their arenas grow with use, so the scratch shrinks with the chunk: on
	// a two-worker run, peak heap is 9.6 MB at 1024 and 6.9 MB at 256, and
	// with the standing pool states/s is no lower at 256
	// (docs/model-checking.md, "Parallel expansion").
	maxChunk = 256
	// minChunk is the narrowest queue the pre-pass takes on; below it (the
	// first few BFS levels) heads are expanded one at a time, as in
	// sequential mode.
	minChunk = 64
	// spinFor is how long a pool goroutine, or the merge in join, polls
	// before it blocks. With 256-head chunks on two cores, blocking at once
	// was about 20% slower than polling for 50 µs (docs/model-checking.md,
	// "Parallel expansion").
	spinFor = 50 * time.Microsecond
)

// chunk is one pre-pass buffer: the heads [lo, hi) as stored, their
// expansion records, and the scratch of the workers that decoded and
// expanded them. The slices are sized to maxChunk once.
type chunk struct {
	wcs    []wctx
	heads  []packedKey
	exps   []expansion
	lo, hi int32
	cursor atomic.Int64
}

// prepass is parallel mode's worker pool state: the chunk being merged, the
// chunk in flight (when busy), and one pprof label context per worker.
//
// A launch publishes its chunk in run and its batch size, sets pending to
// the pool's size and then bumps gen; each pool goroutine waits for gen to
// move, expands its share of run, and counts pending down, and join waits
// for pending to reach zero. A nil run tells the pool to exit. wake and
// done carry one token each to whoever stopped spinning and blocked.
type prepass struct {
	cur, next *chunk
	busy      bool
	labels    []context.Context

	started bool
	run     *chunk
	batch   int64
	gen     atomic.Uint64
	pending atomic.Int32
	wake    []chan struct{}
	done    chan struct{}
	live    sync.WaitGroup
}

// newPrepass returns the pre-pass for Options.Workers, or nil when the run
// is sequential (Workers <= 1 once -1 has become GOMAXPROCS).
func newPrepass(e *explorer) *prepass {
	w := e.opts.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 2 {
		return nil
	}
	pp := &prepass{cur: newChunk(e, w), next: newChunk(e, w), labels: make([]context.Context, w),
		wake: make([]chan struct{}, w), done: make(chan struct{}, 1)}
	for i := range pp.labels {
		pp.labels[i] = pprof.WithLabels(context.Background(),
			pprof.Labels("mc-stage", "expand", "mc-worker", strconv.Itoa(i)))
		pp.wake[i] = make(chan struct{}, 1)
	}
	return pp
}

func newChunk(e *explorer, workers int) *chunk {
	c := &chunk{wcs: make([]wctx, workers), heads: make([]packedKey, maxChunk), exps: make([]expansion, maxChunk)}
	for i := range c.wcs {
		e.initCtx(&c.wcs[i])
	}
	return c
}

// expansion returns head's pre-expanded record, or nil when head is to be
// expanded alone. Reaching the end of cur, the merge joins the chunk in
// flight — which starts at exactly that head — or, with nothing in flight,
// expands the next chunk synchronously when at least minChunk heads are
// queued. Either way it then launches the chunk after cur once the heads
// queued past cur are at least minChunk and at least what cur still has
// to merge (cur never holds more than maxChunk, so a full chunk always
// qualifies): the pool then has about as much to expand as the merge has
// to walk, and neither side idles on a sliver of the other's work.
func (pp *prepass) expansion(e *explorer, head int32) *expansion {
	if head >= pp.cur.hi {
		if !pp.busy {
			queued := int32(e.numStates()) - head
			if queued < minChunk {
				return nil
			}
			pp.launch(e, head, head+min(queued, maxChunk))
		}
		pp.join()
		pp.cur, pp.next = pp.next, pp.cur
	}
	if queued := int32(e.numStates()) - pp.cur.hi; !pp.busy && queued >= max(minChunk, pp.cur.hi-head) {
		pp.launch(e, pp.cur.hi, pp.cur.hi+min(queued, maxChunk))
	}
	return &pp.cur.exps[head-pp.cur.lo]
}

// launch starts expanding heads [lo, hi) into the next buffer on the pool
// and returns at once; join waits for it. Workers claim batches of heads
// through an atomic cursor (batching keeps the cursor off the hot path).
func (pp *prepass) launch(e *explorer, lo, hi int32) {
	c := pp.next
	n := int(hi - lo)
	c.lo, c.hi = lo, hi
	for i := range n {
		c.heads[i] = e.slab.packed(uint32(lo) + uint32(i))
	}
	// The buffer's previous chunk is fully merged (fresh states and keys
	// were copied out), so every worker's scratch can be recycled.
	for i := range c.wcs {
		w := &c.wcs[i]
		w.buf.Reset()
		w.slab.Reset()
		w.preps = w.preps[:0]
	}
	c.cursor.Store(0)
	if !pp.started {
		pp.started = true
		pp.live.Add(len(pp.wake))
		for wi := range pp.wake {
			go pp.work(e, wi, pp.gen.Load())
		}
	}
	pp.run = c
	workers := min(len(c.wcs), n)
	pp.batch = int64(min(max(n/(workers*4), 1), 64))
	pp.pending.Store(int32(len(pp.wake)))
	pp.busy = true
	pp.signal()
}

// signal publishes a launch, or a stop when run is nil, to the pool.
func (pp *prepass) signal() {
	pp.gen.Add(1)
	for _, ch := range pp.wake {
		post(ch)
	}
}

// work is one pool goroutine: it expands its share of every chunk launched
// after generation seen, until the pool is stopped.
func (pp *prepass) work(e *explorer, wi int, seen uint64) {
	defer pp.live.Done()
	pprof.SetGoroutineLabels(pp.labels[wi])
	for {
		if !spin(func() bool { return pp.gen.Load() != seen }) {
			for pp.gen.Load() == seen {
				<-pp.wake[wi]
			}
		}
		seen = pp.gen.Load()
		c := pp.run
		if c == nil {
			return
		}
		w := &c.wcs[wi]
		for n := int64(c.hi - c.lo); ; {
			end := c.cursor.Add(pp.batch)
			start := end - pp.batch
			if start >= n {
				break
			}
			for i := start; i < min(end, n); i++ {
				e.expandAhead(e.headState(w, c.heads[i]), &c.exps[i], w)
			}
		}
		if pp.pending.Add(-1) == 0 {
			post(pp.done)
		}
	}
}

// join waits for the chunk in flight, if any; its records are complete
// when join returns.
func (pp *prepass) join() {
	if !pp.busy {
		return
	}
	if !spin(func() bool { return pp.pending.Load() == 0 }) {
		for pp.pending.Load() != 0 {
			<-pp.done
		}
	}
	pp.busy = false
}

// stop joins the chunk in flight and ends the pool's goroutines. It is
// final: nothing is launched after it.
func (pp *prepass) stop() {
	pp.join()
	if pp.started {
		pp.run = nil
		pp.signal()
		pp.live.Wait()
	}
}

// spin polls ready for up to spinFor, yielding the processor between
// polls, and reports whether it came true.
func spin(ready func() bool) bool {
	deadline := time.Now().Add(spinFor)
	for !ready() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// post leaves a token in ch, a channel of capacity one, unless one is
// already there: a blocked receiver wakes, and a spinning one finds the
// token stale when it next blocks, checks its condition and blocks again.
func post(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// expandAhead is one worker's expansion of head state s into x: successors
// and every probe prepared. The probe array is carved from the worker's
// scratch; a later head's growth may move that scratch, but x keeps the
// backing array it was filled in, which nothing writes again before the
// buffer's next launch.
func (e *explorer) expandAhead(s gcl.State, x *expansion, w *wctx) {
	e.expandInto(s, x, w)
	n := len(x.succs)
	base := len(w.preps)
	w.preps = grow(w.preps, base+n)
	x.preps = w.preps[base : base+n : base+n]
	x.ahead = true
	if w.canon != nil {
		x.keys = &w.slab
	}
	e.prepSuccs(w, x.succs, x.preps)
}
