package mc

// Parallel explicit-state exploration. The engine alternates phases over
// chunks of the BFS queue: a pool of worker goroutines expands the next
// chunk of numbered states (successor generation and batched
// canonicalization/fingerprinting — the expensive, embarrassingly parallel
// part), a second owner-computes pass resolves each candidate's visited-set
// verdict on the worker that owns its store shard, then a single merge pass
// numbers the freshly discovered states in exactly the order the sequential
// engine would have. Because state numbering, parent attribution, edge
// order, and stop conditions are all decided by the deterministic merge
// pass, every downstream analysis — Trace, SCCs, FindStarvation,
// FindNoProgress — sees a graph identical to the sequential engine's,
// regardless of worker count or scheduling. See docs/model-checking.md for
// the design in full.
//
// Owner-computes sharding: the visited store's 64 fingerprint shards are
// statically partitioned over the workers (owner = shard mod workers).
// Expansion workers do not probe the store at all; they route each produced
// candidate, by fingerprint, into a per-(producer, owner) inbox. After the
// expansion barrier every owner drains the inboxes addressed to it and
// resolves its candidates' verdicts with plain unlocked lookups — each
// shard's table is read by exactly one goroutine per phase, so the steady
// state needs no locks and each owner's shards stay resident in its cache.
// The phases never overlap the merge pass (chunk barriers separate them),
// which remains the sole writer.
//
// Profiling: the expansion and drain goroutines run under runtime/pprof
// labels ("mc-stage" = expand|drain, plus "mc-worker"/"mc-shard-owner"), so
// CPU profiles taken with -cpuprofile can be sliced per stage and per
// worker; see the Performance section of docs/model-checking.md.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bakerypp/internal/gcl"
)

// Sentinel values for candidate.violated beyond a real invariant index.
const (
	// candInvNone: invariants were evaluated and none is violated.
	candInvNone int32 = -1
	// candInvUnchecked: the expansion deferred invariant evaluation; the
	// merge pass evaluates lazily, and only on states that merge as fresh.
	// This is the steady state of the inline (single-worker) path, which
	// skips the advisory store probe too — deferring both halves the
	// per-successor store traffic and skips invariant checks on duplicates,
	// matching the sequential engine's work exactly.
	candInvUnchecked int32 = -2
)

// candidate is one successor produced by a worker, carrying everything the
// merge pass needs to number it without recomputing: the state, its
// prepared store key (the state itself, or its canonical orbit
// representative under symmetry reduction) with fingerprint, the
// transition that produced it, and the advisory verdicts resolved by the
// owner-computes drain.
type candidate struct {
	state gcl.State
	key   gcl.State
	fp    uint64
	// perm is the index of the state's canonical witnessing permutation
	// when the exploration tracks permutations (quotient graphs).
	perm     int32
	pid      int32
	labelIdx int32
	// seen is the state's index if it was already numbered when its owner
	// drained it, else -1. A -1 candidate may still duplicate a state
	// discovered concurrently in the same chunk; the merge pass resolves
	// that deterministically.
	seen int32
	// violated is the index into Options.Invariants of the first invariant
	// the state breaks, candInvNone if none, or candInvUnchecked when the
	// check was deferred to the merge pass.
	violated int32
}

// expansion is the ordered successor set of one frontier state.
type expansion struct {
	cands []candidate
	// progress records whether any successor was a program action (crash
	// pseudo-transitions do not count), feeding deadlock detection.
	progress bool
	// aPid/aLo/aHi describe the ample segment cands[aLo:aHi] when
	// partial-order reduction selected a process at expansion time
	// (aPid = -1 otherwise). The merge pass commits to the segment only
	// after re-checking, in deterministic merge order, that every segment
	// candidate is still absent from the visited store (the C3 proviso).
	aPid, aLo, aHi int32
}

// candInbox is one single-producer single-consumer batch lane of the
// owner-computes routing mesh: expansion worker p appends candidate
// pointers for shard-owner o into inboxes[p][o], and owner o drains every
// inboxes[*][o] after the expansion barrier. The two sides never run
// concurrently (the barrier orders them), so a plain slice suffices; its
// capacity is retained across chunks, making steady-state push and drain
// allocation-free (pinned by TestInboxPushDrainAllocFree).
type candInbox struct {
	items []*candidate
}

// pexplorer drives the parallel engine. It reuses the sequential explorer's
// state/parent/depth arrays (so Graph, Trace, and the SCC analyses work
// unchanged); the shared visited set is the explorer's StateStore, built
// in its sharded variant so ownership partitions cleanly.
type pexplorer struct {
	e       *explorer
	workers int
	// wcs/cslabs are the per-worker expansion contexts and candidate
	// arenas: worker w batch-canonicalizes into wcs[w].slab and allocates
	// candidate records from cslabs[w]. Both are recycled at each chunk
	// boundary — by then the previous chunk's candidates have all been
	// merged (fresh states and keys copied out by addPrepared), so nothing
	// references the scratch anymore.
	wcs    []wctx
	cslabs []candSlab
	// exps is the chunk's expansion-slot buffer, reused across chunks.
	exps []expansion
	// inboxes[p][o] routes candidates from producer p to shard-owner o.
	inboxes [][]candInbox
	// sst is the store downcast to its sharded variant, giving the drain
	// pass direct unlocked shard access; nil for other tiers (compact,
	// bitstate, spill), whose concurrent-safe Lookup is used instead.
	sst *shardedStore
	// mb is the store's merge-batching hook, when it has one.
	mb mergeBatcher
}

// candSlab is bump-allocated storage for candidate records, recycled per
// chunk, replacing one make([]candidate) per expanded state.
type candSlab struct {
	blocks [][]candidate
	ci     int
	off    int
}

// candSlabBlock is the slab block size in candidate records.
const candSlabBlock = 4096

func (a *candSlab) reset() {
	a.ci = 0
	a.off = 0
}

// alloc returns an empty candidate slice with capacity n carved from the
// slab; the caller appends at most n records, so the slice never escapes
// its block.
func (a *candSlab) alloc(n int) []candidate {
	if n == 0 {
		return nil
	}
	for {
		if a.ci < len(a.blocks) {
			blk := a.blocks[a.ci]
			if a.off+n <= len(blk) {
				s := blk[a.off : a.off : a.off+n]
				a.off += n
				return s
			}
			a.ci++
			a.off = 0
			continue
		}
		sz := candSlabBlock
		if n > sz {
			sz = n
		}
		a.blocks = append(a.blocks, make([]candidate, sz))
	}
}

func newPExplorer(p *gcl.Prog, opts Options, plan Plan) *pexplorer {
	w := opts.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	pe := &pexplorer{e: newExplorer(p, opts, true, plan), workers: w}
	pe.wcs = make([]wctx, w)
	pe.cslabs = make([]candSlab, w)
	if plan.Symmetry || plan.TrackPerms {
		for i := range pe.wcs {
			pe.wcs[i].canon = p.NewCanonicalizer()
		}
	}
	pe.inboxes = make([][]candInbox, w)
	for i := range pe.inboxes {
		pe.inboxes[i] = make([]candInbox, w)
	}
	pe.sst, _ = pe.e.store.(*shardedStore)
	pe.mb, _ = pe.e.store.(mergeBatcher)
	return pe
}

// beginMerge/endMerge bracket the single-threaded merge pass for stores
// that batch insertions under the chunk barrier.
func (pe *pexplorer) beginMerge() {
	if pe.mb != nil {
		pe.mb.BeginMerge()
	}
}

func (pe *pexplorer) endMerge() {
	if pe.mb != nil {
		pe.mb.EndMerge()
	}
}

// addNumbered gives the candidate's state a number if it is new, mirroring
// explorer.add. It must only be called from the single-threaded merge pass;
// the numbering order of calls is what makes the engine deterministic.
func (pe *pexplorer) addNumbered(c *candidate, parent int32) (int32, bool) {
	if c.seen >= 0 {
		return c.seen, false
	}
	return pe.e.addPrepared(c.fp, c.key, c.perm, c.state, parent, c.pid, c.labelIdx)
}

// addInit numbers the initial state (index 0). No worker runs yet, so it
// inserts like a merge pass.
func (pe *pexplorer) addInit(init gcl.State) {
	fp, key, perm := pe.e.prepareProbe(&pe.e.wc, init)
	c := candidate{state: init, key: key, fp: fp, perm: perm, pid: -1,
		labelIdx: crashLabelIdx, seen: -1, violated: candInvNone}
	pe.beginMerge()
	pe.addNumbered(&c, -1)
	pe.endMerge()
}

// maxChunk is how many queued states one expansion phase covers. Chunks
// need to be wide enough to amortise the spawn/barrier cost over real work
// and narrow enough that a bounded run (MaxStates, early violation stop)
// wastes at most one chunk of speculative expansion.
const maxChunk = 4096

// expandRange expands every state numbered in [lo, hi) — the next chunk of
// the BFS queue, contiguous because numbering follows discovery order —
// across the worker pool, in two barrier-separated stages. Stage one:
// workers claim batches of states through an atomic cursor (batched
// hand-off keeps the cursor off the hot path), generate and batch-prepare
// successors into disjoint slots, and route each candidate to its shard
// owner's inbox. Stage two: each owner drains its inboxes, resolving
// visited-set verdicts with unlocked lookups confined to the shards it
// owns, and pre-evaluating invariants (checkInv) on candidates that look
// fresh. Tiny chunks (the first few BFS levels) and single-worker runs are
// expanded inline with both verdicts deferred to the merge pass: there is
// no parallelism to win, and deferring saves the advisory probe.
func (pe *pexplorer) expandRange(lo, hi int32, checkInv bool) []expansion {
	n := int(hi - lo)
	if cap(pe.exps) < n {
		pe.exps = make([]expansion, n)
	}
	out := pe.exps[:n]
	// Chunk boundary: the previous chunk is fully merged, so every worker's
	// successor buffer, key slab, and candidate slab can be recycled
	// wholesale.
	for w := range pe.wcs {
		pe.wcs[w].buf.Reset()
		pe.wcs[w].slab.Reset()
		pe.cslabs[w].reset()
	}
	workers := pe.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 64 {
		for i := range out {
			pe.expandState(lo+int32(i), &out[i], &pe.wcs[0], &pe.cslabs[0])
		}
		return out
	}
	for p := 0; p < workers; p++ {
		for o := 0; o < workers; o++ {
			pe.inboxes[p][o].items = pe.inboxes[p][o].items[:0]
		}
	}
	batch := n / (workers * 4)
	if batch < 1 {
		batch = 1
	}
	if batch > 64 {
		batch = 64
	}
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("mc-stage", "expand", "mc-worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				inbox := pe.inboxes[w][:workers]
				for {
					end := atomic.AddInt64(&cursor, int64(batch))
					start := end - int64(batch)
					if start >= int64(n) {
						return
					}
					if end > int64(n) {
						end = int64(n)
					}
					for i := start; i < end; i++ {
						x := &out[i]
						pe.expandState(lo+int32(i), x, &pe.wcs[w], &pe.cslabs[w])
						for ci := range x.cands {
							c := &x.cands[ci]
							o := int(c.fp&(shardCount-1)) % workers
							inbox[o].items = append(inbox[o].items, c)
						}
					}
				}
			})
		}(w)
	}
	wg.Wait()
	var dg sync.WaitGroup
	for o := 0; o < workers; o++ {
		dg.Add(1)
		go func(o int) {
			defer dg.Done()
			labels := pprof.Labels("mc-stage", "drain", "mc-shard-owner", strconv.Itoa(o))
			pprof.Do(context.Background(), labels, func(context.Context) {
				pe.drainOwner(o, workers, checkInv)
			})
		}(o)
	}
	dg.Wait()
	return out
}

// expandState computes the ordered successor candidates of one state:
// successor generation plus one batched canonicalize/fingerprint pass over
// the whole run (prepSuccs). It reads only the numbered-state prefix —
// never the visited store — and writes only to its private result slot and
// the worker-owned scratch w/cs, so expansion workers share nothing but
// read-only data.
func (pe *pexplorer) expandState(idx int32, out *expansion, w *wctx, cs *candSlab) {
	e := pe.e
	succs, aPid, aLo, aHi := e.successors(e.stateAt(idx), w)
	out.aPid, out.aLo, out.aHi = int32(aPid), int32(aLo), int32(aHi)
	out.progress = false
	w.preps = growPreps(w.preps, len(succs))
	e.prepSuccs(w, succs, w.preps)
	out.cands = cs.alloc(len(succs))
	for i, sc := range succs {
		if sc.LabelIdx >= 0 {
			out.progress = true
		}
		pr := &w.preps[i]
		out.cands = append(out.cands, candidate{
			state:    sc.State,
			key:      pr.key,
			fp:       pr.fp,
			perm:     pr.perm,
			pid:      int32(sc.Pid),
			labelIdx: sc.LabelIdx,
			seen:     -1,
			violated: candInvUnchecked,
		})
	}
}

// drainOwner resolves the advisory verdicts of every candidate routed to
// shard-owner o: a visited-set lookup (unlocked and confined to o's own
// shards when the store is the sharded exact tier), then invariant
// pre-evaluation on candidates that look fresh. Each candidate is routed to
// exactly one owner, so the field writes are exclusive; the surrounding
// barriers order them against both expansion and merge.
func (pe *pexplorer) drainOwner(o, workers int, checkInv bool) {
	e := pe.e
	for p := 0; p < workers; p++ {
		for _, c := range pe.inboxes[p][o].items {
			var idx int32
			var ok bool
			if pe.sst != nil {
				idx, ok = pe.sst.shard(c.fp).lookup(c.fp, c.key)
			} else {
				idx, ok = e.store.Lookup(c.fp, c.key)
			}
			if ok {
				c.seen = idx
				continue
			}
			if checkInv {
				c.violated = e.checkInvariantsIdx(c.state)
			}
		}
	}
}

// ampleOKAtMerge re-checks the C3 proviso at merge time, where the
// deterministic insertion order is known: every ample candidate must be
// absent from the visited store (an earlier merge in this chunk may have
// inserted it since expansion) or stored at exactly the next BFS depth —
// the same decision, at the same logical point, as the sequential engine's
// ampleOKPrep, which keeps the two engines byte-identical. A drain-time
// seen hit is re-used only for its index (the store never deletes).
func (pe *pexplorer) ampleOKAtMerge(cands []candidate, d int32) bool {
	e := pe.e
	for i := range cands {
		c := &cands[i]
		idx, ok := c.seen, c.seen >= 0
		if !ok {
			idx, ok = e.store.Lookup(c.fp, c.key)
		}
		if ok && e.depth[idx] != d+1 {
			return false
		}
	}
	return true
}

// mergeViolation resolves a fresh candidate's invariant verdict: the
// drain's pre-computed index, or a lazy evaluation when the check was
// deferred (inline path). Returns the invariant index, or a negative
// sentinel if none is violated.
func (pe *pexplorer) mergeViolation(c *candidate) int32 {
	v := c.violated
	if v == candInvUnchecked {
		v = pe.e.checkInvariantsIdx(c.state)
	}
	return v
}

// checkParallel is Check on the parallel engine. The merge pass replays the
// sequential loop's order exactly — per-head state-bound check, transition
// counting, first-violation stop, deadlock check after a head's successors —
// so results (including States/Transitions/Depth at an early stop) match the
// sequential engine's.
func checkParallel(p *gcl.Prog, opts Options, plan Plan) *Result {
	start := time.Now()
	pe := newPExplorer(p, opts, plan)
	e := pe.e
	res := &Result{Prog: p, Symmetry: e.symmetry, POR: e.por}

	finish := func() *Result {
		res.States = e.numStates()
		res.Store = e.storeReport()
		res.Elapsed = time.Since(start)
		return res
	}

	init := p.InitState()
	pe.addInit(init)
	if name, bad := e.checkInvariants(init); bad {
		t := e.trace(0)
		res.Violation = &Violation{Invariant: name, Trace: t}
		return finish()
	}

	checkInv := len(opts.Invariants) > 0
	for merged := 0; merged < e.numStates(); {
		lo, hi := int32(merged), int32(e.numStates())
		if hi > lo+maxChunk {
			hi = lo + maxChunk
		}
		merged = int(hi)
		exps := pe.expandRange(lo, hi, checkInv)
		// Workers are quiescent from here to the next expandRange: batch the
		// whole chunk's store insertions without per-insert locking. (An
		// early return skips endMerge; the store is discarded with the run.)
		pe.beginMerge()
		for i := range exps {
			head := lo + int32(i)
			if e.numStates() >= e.opts.MaxStates {
				return finish()
			}
			res.Depth = int(e.depth[head])
			x := &exps[i]
			cands := x.cands
			if x.aPid >= 0 && pe.ampleOKAtMerge(x.cands[x.aLo:x.aHi], e.depth[head]) {
				cands = x.cands[x.aLo:x.aHi]
			}
			for ci := range cands {
				c := &cands[ci]
				res.Transitions++
				idx, fresh := pe.addNumbered(c, head)
				if !fresh {
					continue
				}
				if v := pe.mergeViolation(c); v >= 0 {
					t := e.trace(idx)
					res.Violation = &Violation{Invariant: e.opts.Invariants[v].Name, Trace: t}
					return finish()
				}
			}
			if opts.Deadlock && !x.progress {
				t := e.trace(head)
				res.Deadlock = &t
				return finish()
			}
			// Safe here: workers are quiescent between expandRange calls, and
			// the next chunk only reads states not yet merged when this head
			// was expanded.
			e.releaseState(int(head))
		}
		pe.endMerge()
	}
	res.Complete = true
	return finish()
}

// buildGraphParallel is BuildGraph on the parallel engine; the merge pass
// appends adjacency edges in the same order the sequential loop would.
func buildGraphParallel(p *gcl.Prog, opts Options, plan Plan) (*Graph, error) {
	start := time.Now()
	pe := newPExplorer(p, opts, plan)
	e := pe.e
	res := &Result{Prog: p, Symmetry: e.symmetry}
	g := &Graph{Summary: res, expl: e}

	init := p.InitState()
	pe.addInit(init)
	g.Adj = append(g.Adj, nil)
	if name, bad := e.checkInvariants(init); bad {
		t := e.trace(0)
		res.Violation = &Violation{Invariant: name, Trace: t}
	}

	checkInv := len(opts.Invariants) > 0
	for merged := 0; merged < e.numStates(); {
		lo, hi := int32(merged), int32(e.numStates())
		if hi > lo+maxChunk {
			hi = lo + maxChunk
		}
		merged = int(hi)
		exps := pe.expandRange(lo, hi, checkInv)
		pe.beginMerge()
		for i := range exps {
			head := lo + int32(i)
			if e.numStates() > e.opts.MaxStates {
				return nil, fmt.Errorf("mc: %s: state bound %d exceeded while building graph",
					p.Name, e.opts.MaxStates)
			}
			res.Depth = int(e.depth[head])
			x := &exps[i]
			for ci := range x.cands {
				c := &x.cands[ci]
				res.Transitions++
				idx, fresh := pe.addNumbered(c, head)
				if fresh {
					g.Adj = append(g.Adj, nil)
					if res.Violation == nil {
						if v := pe.mergeViolation(c); v >= 0 {
							t := e.trace(idx)
							res.Violation = &Violation{Invariant: e.opts.Invariants[v].Name, Trace: t}
						}
					}
				}
				g.Adj[head] = append(g.Adj[head], Edge{To: idx, Pid: int8(c.pid), LabelIdx: c.labelIdx,
					Perm: e.edgePermIdx(c.perm, idx, fresh)})
			}
		}
		pe.endMerge()
	}
	res.States = e.numStates()
	res.Store = e.storeReport()
	res.Complete = true
	res.Elapsed = time.Since(start)
	return g, nil
}
