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
// leaving the old ones to the captured heads (spill decodes and release-mode clones, private copies,
// are wrapped as raw entries). Each worker decodes its own heads —
// restoring them from key and tail under symmetry — into its scratch, so
// no decoding runs on the merge. Everything else a worker writes is its chunk's own scratch and
// records. Two chunk buffers alternate: cur, whose records the merge is
// walking, and next, in flight on the pool. Each owns its workers' scratch,
// so expanding next never recycles memory the merge of cur still reads.
// The merge joins next when it reaches it, and Check and BuildGraph join it
// on every return (explorer.join), early stops included.
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

	"bakerypp/internal/gcl"
)

const (
	// maxChunk is how many queued heads one pre-pass chunk covers: wide
	// enough to amortise the spawn/join cost over real work (a full chunk
	// is 0.5–1 ms of expansion), narrow enough that a bounded run
	// (MaxStates, early violation stop) wastes at most one chunk of
	// speculative expansion. It also bounds the pre-pass's memory: workers
	// claim heads dynamically, so one worker can take nearly a whole chunk
	// and its scratch grows to hold that chunk's successors and probe
	// records — two buffers × Workers × one chunk of records at peak. At
	// 4096 those records doubled a two-worker run's peak heap; states/s is
	// level from 256 to 4096 (docs/model-checking.md, "Parallel
	// expansion").
	maxChunk = 1024
	// minChunk is the narrowest queue the pre-pass takes on; below it (the
	// first few BFS levels) heads are expanded one at a time, as in
	// sequential mode.
	minChunk = 64
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
type prepass struct {
	cur, next *chunk
	busy      bool
	wg        sync.WaitGroup
	labels    []context.Context
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
	pp := &prepass{cur: newChunk(e, w), next: newChunk(e, w), labels: make([]context.Context, w)}
	for i := range pp.labels {
		pp.labels[i] = pprof.WithLabels(context.Background(),
			pprof.Labels("mc-stage", "expand", "mc-worker", strconv.Itoa(i)))
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
		c.heads[i] = e.headEntry(lo + int32(i))
	}
	// The buffer's previous chunk is fully merged (fresh states and keys
	// were copied out), so every worker's scratch can be recycled.
	for i := range c.wcs {
		w := &c.wcs[i]
		w.buf.Reset()
		w.slab.Reset()
		w.preps = w.preps[:0]
	}
	workers := min(len(c.wcs), n)
	batch := int64(min(max(n/(workers*4), 1), 64))
	c.cursor.Store(0)
	pp.busy = true
	pp.wg.Add(workers)
	for wi := range workers {
		go pp.work(e, c, &c.wcs[wi], pp.labels[wi], batch)
	}
}

// work is one pool goroutine's share of chunk c.
func (pp *prepass) work(e *explorer, c *chunk, w *wctx, labels context.Context, batch int64) {
	defer pp.wg.Done()
	pprof.SetGoroutineLabels(labels)
	n := int64(c.hi - c.lo)
	for {
		end := c.cursor.Add(batch)
		start := end - batch
		if start >= n {
			return
		}
		for i := start; i < min(end, n); i++ {
			e.expandAhead(e.headState(w, c.heads[i]), &c.exps[i], w)
		}
	}
}

// join waits for the chunk in flight, if any; its records are complete
// when join returns.
func (pp *prepass) join() {
	if pp.busy {
		pp.wg.Wait()
		pp.busy = false
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
