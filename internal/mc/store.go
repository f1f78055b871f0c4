package mc

// StateStore is the visited-set abstraction every exploration loop in this
// package — Check/BuildGraph, the FCFS monitor product, and the
// bounded-refinement memo — routes through. All implementations share one
// scheme: states are keyed by a 64-bit fingerprint and the rare
// fingerprint collisions are resolved by comparing full key vectors, so
// membership stays exact (unlike TLC's default trust-the-fingerprint
// mode).
//
// The exact in-heap store (seqStore) is one open-addressed linear-probe
// table (fpTable) of 8-byte slots free of Go pointers, each a fingerprint
// tag and an index into a keySlab (keyslab.go) that holds the key vectors
// at a fixed stride per block, headerless, packed four bits or one byte
// per word while every word allows; a probe compares the unpacked key
// against the packed entry. The
// engines number their states in the same slab — a state's number is its
// slab index — so each state is stored once, with nothing beside it; the
// store keeps a value column only for callers whose values are payloads.
// Fingerprints are computed over the unpacked words, so packing changes no
// fingerprint in any tier. It takes no locks: every exploration
// loop uses its store from one goroutine — in Check and BuildGraph the
// single-threaded merge, which makes every lookup and insert, also in
// parallel mode, whose pre-pass workers never touch the store. The other
// tiers (spill, compact, bitstate) still synchronise internally, though no
// engine needs it any more. Its keying variants:
//
//   - symmetry-aware (Plan.Symmetry): Prepare canonicalizes the state
//     before probing, so all states of one process-permutation orbit
//     collapse onto a single entry. The store compares canonical keys; the
//     engine keeps and expands the concrete, first-encountered
//     representative, which is what keeps counterexample traces concrete
//     and replayable — see docs/model-checking.md, "Symmetry reduction".
//     In the exact tier that representative is not stored beside its key:
//     the slab entry carries the canonical key plus a tail with the
//     witness permutation and the raw scan-cursor values, and the engine
//     decodes the concrete state from them (gcl.Prog.Restore).
//   - pinned-symmetry (Plan.Pinned): Prepare canonicalizes over the
//     subgroup of permutations that fix the pinned pids, the keying the
//     FCFS monitor product uses — the monitor distinguishes its (first,
//     second) pair but is symmetric in everyone else. Extra key words (the
//     monitor phase) are appended after the pinned-canonical state.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"bakerypp/internal/gcl"
)

// StateStore maps key states to int32 values (state numbers for the
// engines, monitor/memo payloads for the product searches) with
// fingerprint+Equal exactness.
type StateStore interface {
	// Prepare computes the probe for s: a fingerprint and the key state it
	// was computed from. Non-symmetric stores key on s itself (no copy);
	// the symmetry-aware store keys on the canonical representative of s's
	// orbit. Optional extra words (a monitor phase, a belief id) are
	// appended to the key; they are rejected by symmetry-aware stores.
	// A store keys on one length: every caller passes the same number of
	// extra words to a store (the exact in-heap store panics on a key of
	// another length, and its Lookup misses one).
	Prepare(s gcl.State, extra ...int32) (uint64, gcl.State)
	// Lookup returns the value stored under key, if present. The engines
	// call it from one goroutine; every tier but the exact in-heap one also
	// tolerates concurrent Lookups and Inserts.
	Lookup(fp uint64, key gcl.State) (int32, bool)
	// Insert stores val under key, replacing any previous value. Stores
	// that keep keys copy them, so the caller may reuse or overwrite key
	// as soon as Insert returns.
	Insert(fp uint64, key gcl.State, val int32)
}

// newStateStore builds the store variant an exploration plan needs.
// Plan.Symmetry requires p.CanCanonicalize() and Plan.Pinned requires
// p.CanTrackPerms(); planFor gates on those and falls back to the full
// search otherwise. Plan.Store selects the representation tier: exact
// in-heap, exact with arena-spilled keys (spill.go), hash-compaction, or
// bitstate (both below); planFor has already refused lossy tiers for
// analyses that need exactness. ar is the engine's spill arena for key
// sharing (nil when the caller has none — the monitor and memo searches —
// in which case a spill store makes its own).
func newStateStore(p *gcl.Prog, plan Plan, ar *arena) StateStore {
	switch plan.Store.Mode {
	case StoreCompact:
		return newCompactStore(p, plan)
	case StoreBitstate:
		return newBitstateStore(p, plan)
	}
	if plan.Store.Spill {
		st, err := newSpillStore(p, plan, ar)
		if err != nil {
			panic(err) // arena creation: disk/temp-dir failure
		}
		return st
	}
	return newSeqStore(p, plan)
}

// kv is one entry of a small fingerprint-bucket index (the quotient
// product's supplementary orbit table): a key vector and its value.
type kv struct {
	key gcl.State
	val int32
}

// prepare implements Prepare's key derivation for every store tier. A
// derived key (canonical, or carrying extra words) is a fresh allocation,
// so callers may hold several prepared keys at once (graph edge
// identification compares two). The engines' hot paths do not come here:
// they prepare probes in batches into per-worker scratch (prepSuccs), which
// is safe because Insert copies whatever it keeps.
func prepare(p *gcl.Prog, plan Plan, s gcl.State, extra []int32) (uint64, gcl.State) {
	switch {
	case plan.Symmetry:
		if len(extra) > 0 {
			panic("mc: symmetry-aware store cannot key on extra words")
		}
		c := p.Canonicalize(s)
		return c.Fingerprint(), c
	case plan.Pinned != nil:
		c := p.CanonicalizePinned(s, plan.Pinned)
		key := append(c, extra...)
		return key.Fingerprint(), key
	case len(extra) == 0:
		return s.Fingerprint(), s
	}
	key := make(gcl.State, len(s)+len(extra))
	copy(key, s)
	copy(key[len(s):], extra)
	return key.Fingerprint(), key
}

// bucketLookup scans one fingerprint bucket for the key.
func bucketLookup(bucket []kv, key gcl.State) (int32, bool) {
	for _, e := range bucket {
		if e.key.Equal(key) {
			return e.val, true
		}
	}
	return -1, false
}

// bucketInsert inserts or replaces the key's entry.
func bucketInsert(bucket []kv, key gcl.State, val int32) []kv {
	for i := range bucket {
		if bucket[i].key.Equal(key) {
			bucket[i].val = val
			return bucket
		}
	}
	return append(bucket, kv{key: key, val: val})
}

// fpEntry is one fpTable slot, 8 bytes with no Go pointers — eight slots
// per cache line, and nothing for the collector to scan. The high 32 bits
// are the key's fingerprint tag (its top 32 bits), the low 32 its keySlab
// index plus one; no index exceeds 2^32-2, so a used slot is never the
// all-zero word that marks an empty one.
type fpEntry uint64

func newFpEntry(fp uint64, i uint32) fpEntry { return fpEntry(fp>>32<<32 | uint64(i+1)) }

func (e fpEntry) index() uint32 { return uint32(e) - 1 }

// fpTable is the exact store's hash table: open addressing with linear
// probing over one flat slot array, mapping keys to their keySlab indices.
// A probe matches on the fingerprint tag first (one integer compare) and
// confirms against the packed key in the slab, so membership is exact.
// Growth rehashes the slots alone — keys never move, and a slot's home is
// read off its tag. Not goroutine-safe: the merge is its only user.
type fpTable struct {
	ents []fpEntry
	slab *keySlab
	n    int
	// shift is 64 - log2(len(ents)), at least 32: a home slot is the top
	// bits of the fingerprint, which the slot's tag keeps.
	shift uint
	// limit is the occupancy at which the table doubles: 7/8 load, so the
	// table is between 7/16 and 7/8 full. Its probes stay short enough —
	// eight slots share a cache line — and the table is a fifth smaller
	// across its life than at 0.7 load.
	limit int
	// sink keeps prefetch's loads live; nothing reads it.
	sink fpEntry
}

// fpTableMinSize is the initial slot count (power of two).
const fpTableMinSize = 1024

// homeSlot returns the initial probe position of a fingerprint, or of a
// slot by its tag: fmix64-finalized fingerprints are equidistributed in
// their top bits.
func (t *fpTable) homeSlot(x uint64) int { return int(x >> t.shift) }

func (t *fpTable) init(size int) {
	t.ents = make([]fpEntry, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.limit = size * 7 / 8
}

// find returns the slab index of key, a key of the slab's length, or -1
// when key is absent; wide reports whether key needs raw words
// (widthOf(key) == rawWidth).
func (t *fpTable) find(fp uint64, key gcl.State, wide bool) int {
	mask := len(t.ents) - 1
	if mask < 0 {
		return -1
	}
	for i := t.homeSlot(fp); ; i = (i + 1) & mask {
		e := t.ents[i]
		if e == 0 {
			return -1
		}
		if uint64(e)>>32 == fp>>32 && t.slab.match(e.index(), wide, key) {
			return int(e.index())
		}
	}
}

// prefetch loads the home slot of every probe in ps, so the lookups that
// follow find their first slot in cache. The slot array is far larger than
// the caches, so nearly every probe's first load misses; issued back to
// back here, those misses overlap, where each lookup's own first load would
// wait behind the compares of the lookup before it.
func (t *fpTable) prefetch(ps []prep) {
	if len(t.ents) == 0 {
		return
	}
	var acc fpEntry
	for i := range ps {
		acc ^= t.ents[t.homeSlot(ps[i].fp)]
	}
	t.sink ^= acc
}

// add enters slab entry i under fp. The entry must not be in the table
// yet: callers add right after a missed find, so the vector they just
// appended doubles as the key. It doubles the table first when it is at
// its load limit.
func (t *fpTable) add(fp uint64, i uint32) {
	if t.ents == nil {
		t.init(fpTableMinSize)
	} else if t.n >= t.limit {
		old := t.ents
		t.init(2 * len(old))
		for _, e := range old {
			if e != 0 {
				t.place(e)
			}
		}
	}
	t.place(newFpEntry(fp, i))
	t.n++
}

// place puts a slot into the first free position of its probe sequence.
func (t *fpTable) place(e fpEntry) {
	mask := len(t.ents) - 1
	for i := t.homeSlot(uint64(e)); ; i = (i + 1) & mask {
		if t.ents[i] == 0 {
			t.ents[i] = e
			return
		}
	}
}

// slabStore is implemented by the exact in-heap store, whose keys live in
// a keySlab. The engines number their states in that same slab — a state's
// number is its slab index — so each state is stored once: the concrete
// vector, which is its own key, or under symmetry the canonical key with
// the tail the concrete state is decoded from.
type slabStore interface {
	keys() *keySlab
	// table is the store's table, through which the engines probe with the
	// widths they computed and add the states they append (fpTable.add);
	// the caller must have exclusive access to the store. An engine that
	// numbers its states in the slab uses the table alone, never Lookup or
	// Insert: the values are the indices.
	table() *fpTable
}

// seqStore is the exact in-heap store: one table, no locks. Its keys are
// of one length (the keySlab's shape): Insert panics on a key of another
// length, and Lookup misses it. vals holds the value of each slab entry,
// for callers whose values are payloads (the FCFS product, the refinement
// memo, the compact store's shadow).
type seqStore struct {
	p    *gcl.Prog
	plan Plan
	slab keySlab
	t    fpTable
	vals []int32
}

func newSeqStore(p *gcl.Prog, plan Plan) *seqStore {
	st := &seqStore{p: p, plan: plan}
	st.t.slab = &st.slab
	return st
}

func (st *seqStore) Prepare(s gcl.State, extra ...int32) (uint64, gcl.State) {
	return prepare(st.p, st.plan, s, extra)
}

func (st *seqStore) Lookup(fp uint64, key gcl.State) (int32, bool) {
	if !st.slab.fits(len(key), 0) {
		return -1, false
	}
	if i := st.t.find(fp, key, widthOf(key) == rawWidth); i >= 0 {
		return st.vals[i], true
	}
	return -1, false
}

func (st *seqStore) Insert(fp uint64, key gcl.State, val int32) {
	st.slab.mustFit(len(key), 0)
	w := widthOf(key)
	if i := st.t.find(fp, key, w == rawWidth); i >= 0 {
		st.vals[i] = val
		return
	}
	i, _ := st.slab.appendTail(key, w, 0)
	st.t.add(fp, i)
	st.vals = append(st.vals, val)
}

func (st *seqStore) keys() *keySlab { return &st.slab }

func (st *seqStore) table() *fpTable { return &st.t }

// lockStripes is the number of independently locked stripes of the
// compact and spill stores' maps; a power of two so stripe selection is a
// fingerprint mask.
const lockStripes = 64

// hiSeedBase seeds the compact store's second fingerprint word; xor-ing the
// run seed in re-rolls both words together. Matches gcl.Fingerprint128's
// high-word seed so a seed-0 wide key IS the state's Fingerprint128.
const hiSeedBase = 0x243f6a8885a308d3

// centry is one compact-store entry: the second fingerprint word (0 in
// 64-bit mode) and the value. The key vector itself is gone — that is the
// compression.
type centry struct {
	hi  uint64
	val int32
}

// compactShard is one stripe of the compact store.
type compactShard struct {
	mu sync.RWMutex
	m  map[uint64][]centry
}

// compactStore is hash compaction (TLC's default trust-the-fingerprint
// scheme, SPIN -DHC): states are represented by a 64- or 128-bit
// fingerprint only. A fingerprint collision makes a fresh state look
// visited — a false HIT, silently omitting the state — so verdicts are
// probabilistic; Report bounds the expected omissions with the birthday
// estimate. False MISSES cannot happen: an inserted key always probes back
// to the same fingerprint (the fuzz target FuzzCompactStoreNoFalseMiss
// pins this). Concurrent-safe via striped RWMutexes.
type compactStore struct {
	p    *gcl.Prog
	plan Plan
	wide bool // 128-bit keys
	seed uint64
	// shadow is the exact cross-check when Plan.Store.Shadow; shadowMu
	// makes it as concurrent-safe as the compact maps.
	shadow   StateStore
	shadowMu sync.RWMutex
	diverge  atomic.Int64
	entries  atomic.Int64
	shards   [lockStripes]compactShard
}

func newCompactStore(p *gcl.Prog, plan Plan) *compactStore {
	st := &compactStore{p: p, plan: plan,
		wide: plan.Store.CompactBits == 128, seed: plan.Store.Seed}
	for i := range st.shards {
		st.shards[i].m = map[uint64][]centry{}
	}
	if plan.Store.Shadow {
		st.shadow = newSeqStore(p, plan)
	}
	return st
}

func (st *compactStore) Prepare(s gcl.State, extra ...int32) (uint64, gcl.State) {
	return prepare(st.p, st.plan, s, extra)
}

// slots derives the store key words from the prepared probe: the low word
// is the standard fingerprint (reused from Prepare) unless a seed re-rolls
// it, the high word the independent second hash in 128-bit mode.
func (st *compactStore) slots(fp uint64, key gcl.State) (lo, hi uint64) {
	lo = fp
	if st.seed != 0 {
		lo = key.FingerprintSeeded(st.seed)
	}
	if st.wide {
		hi = key.FingerprintSeeded(hiSeedBase ^ st.seed)
	}
	return lo, hi
}

func (st *compactStore) Lookup(fp uint64, key gcl.State) (int32, bool) {
	lo, hi := st.slots(fp, key)
	sh := &st.shards[lo&(lockStripes-1)]
	sh.mu.RLock()
	val, ok := int32(-1), false
	for _, e := range sh.m[lo] {
		if e.hi == hi {
			val, ok = e.val, true
			break
		}
	}
	sh.mu.RUnlock()
	if st.shadow != nil {
		st.shadowMu.RLock()
		sval, sok := st.shadow.Lookup(fp, key)
		st.shadowMu.RUnlock()
		if sok != ok || (ok && sval != val) {
			st.diverge.Add(1)
		}
	}
	return val, ok
}

func (st *compactStore) Insert(fp uint64, key gcl.State, val int32) {
	lo, hi := st.slots(fp, key)
	sh := &st.shards[lo&(lockStripes-1)]
	sh.mu.Lock()
	bucket := sh.m[lo]
	replaced := false
	for i := range bucket {
		if bucket[i].hi == hi {
			bucket[i].val = val
			replaced = true
			break
		}
	}
	if !replaced {
		sh.m[lo] = append(bucket, centry{hi: hi, val: val})
		st.entries.Add(1)
	}
	sh.mu.Unlock()
	if st.shadow != nil {
		st.shadowMu.Lock()
		st.shadow.Insert(fp, key, val)
		st.shadowMu.Unlock()
	}
}

func (st *compactStore) Report() StoreReport {
	k := float64(st.entries.Load())
	bits := 64
	mode := "compact64"
	if st.wide {
		bits, mode = 128, "compact"
	}
	// Birthday bound: expected colliding pairs ≈ k(k-1)/2^(bits+1); each
	// collision omits at least the later state, so this bounds expected
	// omissions from fingerprint aliasing.
	expected := math.Ldexp(k*(k-1), -(bits + 1))
	return StoreReport{
		Mode:              mode,
		Lossy:             true,
		Seed:              st.seed,
		Entries:           st.entries.Load(),
		ExpectedOmissions: expected,
		Confidence:        confidenceFrom(expected),
		ShadowDivergences: st.diverge.Load(),
	}
}

// bitstateStore is SPIN's supertrace/bitstate hashing: a fixed array of
// 2^log2 bits, k bits per state by double hashing. It stores no values
// (Lookup reports membership with val -1), so the planner disables POR
// alongside (the proviso needs stored depths) and every value-carrying
// analysis refuses it. Omission risk is far higher than compact mode —
// this is the frontier-probing tier; Report converts the final fill ratio
// into an expected-omission bound and a coverage confidence, which the
// verdict banner reports instead of claiming exhaustiveness. Lock-free:
// bit sets use CAS, probes use atomic loads, so it is concurrent-safe for
// any engine phase discipline.
type bitstateStore struct {
	p       *gcl.Prog
	plan    Plan
	seed    uint64
	k       int
	mask    uint64
	words   []uint64
	bitsSet atomic.Int64
	probes  atomic.Int64
	entries atomic.Int64
}

func newBitstateStore(p *gcl.Prog, plan Plan) *bitstateStore {
	bits := uint64(1) << plan.Store.BitstateLog2
	return &bitstateStore{p: p, plan: plan, seed: plan.Store.Seed,
		k: plan.Store.BitstateHashes, mask: bits - 1, words: make([]uint64, bits/64)}
}

func (st *bitstateStore) Prepare(s gcl.State, extra ...int32) (uint64, gcl.State) {
	return prepare(st.p, st.plan, s, extra)
}

// indices yields the k bit positions for a probe via double hashing:
// h1 + i*h2 over the array, h2 forced odd so the stride walks the whole
// power-of-two table.
func (st *bitstateStore) indices(fp uint64, key gcl.State, visit func(word, bit uint64) bool) {
	h1 := fp
	if st.seed != 0 {
		h1 = key.FingerprintSeeded(st.seed)
	}
	h2 := key.FingerprintSeeded(hiSeedBase^st.seed) | 1
	for i := 0; i < st.k; i++ {
		idx := (h1 + uint64(i)*h2) & st.mask
		if !visit(idx>>6, uint64(1)<<(idx&63)) {
			return
		}
	}
}

func (st *bitstateStore) Lookup(fp uint64, key gcl.State) (int32, bool) {
	st.probes.Add(1)
	all := true
	st.indices(fp, key, func(word, bit uint64) bool {
		if atomic.LoadUint64(&st.words[word])&bit == 0 {
			all = false
			return false
		}
		return true
	})
	if !all {
		return -1, false
	}
	return -1, true
}

func (st *bitstateStore) Insert(fp uint64, key gcl.State, _ int32) {
	fresh := int64(0)
	st.indices(fp, key, func(word, bit uint64) bool {
		for {
			old := atomic.LoadUint64(&st.words[word])
			if old&bit != 0 {
				return true
			}
			if atomic.CompareAndSwapUint64(&st.words[word], old, old|bit) {
				fresh++
				return true
			}
		}
	})
	if fresh > 0 {
		st.bitsSet.Add(fresh)
	}
	st.entries.Add(1)
}

func (st *bitstateStore) Report() StoreReport {
	bits := int64(st.mask + 1)
	set := st.bitsSet.Load()
	fill := float64(set) / float64(bits)
	// Each Lookup false-positives with probability ≤ fill^k at the FINAL
	// fill ratio (fill only grows), so probes × fill^k upper-bounds the
	// expected number of fresh states wrongly treated as visited.
	expected := float64(st.probes.Load()) * math.Pow(fill, float64(st.k))
	return StoreReport{
		Mode:              "bitstate",
		Lossy:             true,
		Seed:              st.seed,
		Entries:           st.entries.Load(),
		ExpectedOmissions: expected,
		Confidence:        confidenceFrom(expected),
		BitsSet:           set,
		Bits:              bits,
		Hashes:            st.k,
	}
}
