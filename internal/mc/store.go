package mc

// StateStore is the visited-set abstraction the product searches in this
// package — the FCFS monitor product and the bounded-refinement memo —
// route through. States are keyed by a 64-bit fingerprint and the rare
// fingerprint collisions are resolved by comparing full key vectors, so
// membership stays exact (unlike TLC's default trust-the-fingerprint
// mode).
//
// The exact store (seqStore) is one open-addressed linear-probe table
// (fpTable) of 8-byte slots free of Go pointers, each a fingerprint tag and
// an index into a keySlab (keyslab.go) that holds the key vectors at a
// fixed stride per block, headerless, packed four bits or one byte per word
// while every word allows; a probe compares the unpacked key against the
// packed entry. Under spill the slab's blocks are mapped from an mmap
// arena (spill.go); nothing else changes. Check and BuildGraph do not go
// through StateStore: they number their states in a keySlab of their own —
// a state's number is its slab index — and probe an fpTable over it
// directly, or, in the bitstate tier, the bit array (bitstateStore), so
// each state is stored once in every tier. The store keeps a value column
// for callers whose values are payloads. Fingerprints are computed over the
// unpacked words, so packing changes no fingerprint in any tier. The exact
// store takes no locks: every exploration loop uses its store from one
// goroutine — in Check and BuildGraph the single-threaded merge, which
// makes every lookup and insert, also in parallel mode, whose pre-pass
// workers never touch the store. Its keying variants:
//
//   - symmetry-aware (Plan.Symmetry): Prepare canonicalizes the state
//     before probing, so all states of one process-permutation orbit
//     collapse onto a single entry. The store compares canonical keys; the
//     engine keeps and expands the concrete, first-encountered
//     representative, which is what keeps counterexample traces concrete
//     and replayable — see docs/model-checking.md, "Symmetry reduction".
//     That representative is not stored beside its key: the engine's slab
//     entry carries the canonical key plus a tail with the witness
//     permutation and the raw scan-cursor values, and the engine decodes
//     the concrete state from them (gcl.Prog.Restore).
//   - pinned-symmetry (Plan.Pinned): Prepare canonicalizes over the
//     subgroup of permutations that fix the pinned pids, the keying the
//     FCFS monitor product uses — the monitor distinguishes its (first,
//     second) pair but is symmetric in everyone else. Extra key words (the
//     monitor phase) are appended after the pinned-canonical state.

import (
	"fmt"
	"math"
	"sync/atomic"

	"bakerypp/internal/gcl"
)

// StateStore maps key states to int32 values (monitor/memo payloads for
// the product searches) with fingerprint+Equal exactness.
type StateStore interface {
	// Prepare computes the probe for s: a fingerprint and the key state it
	// was computed from. Non-symmetric stores key on s itself (no copy);
	// the symmetry-aware store keys on the canonical representative of s's
	// orbit. Optional extra words (a monitor phase, a belief id) are
	// appended to the key; they are rejected by symmetry-aware stores.
	// A store keys on one length: every caller passes the same number of
	// extra words to a store (the exact store panics on a key of another
	// length, and its Lookup misses one).
	Prepare(s gcl.State, extra ...int32) (uint64, gcl.State)
	// Lookup returns the value stored under key, if present. The exact
	// store must be used from one goroutine; the bitstate store also
	// tolerates concurrent Lookups and Inserts.
	Lookup(fp uint64, key gcl.State) (int32, bool)
	// Insert stores val under key, replacing any previous value. Stores
	// that keep keys copy them, so the caller may reuse or overwrite key
	// as soon as Insert returns.
	Insert(fp uint64, key gcl.State, val int32)
}

// newStateStore builds the store variant a product search's plan needs.
// Plan.Symmetry requires p.CanCanonicalize() and Plan.Pinned requires
// p.CanTrackPerms(); planFor gates on those and falls back to the full
// search otherwise. Plan.Store selects the tier: exact, with its slab on
// the heap or spilled, or bitstate; planFor has already refused the lossy
// tier for analyses that need exactness.
func newStateStore(p *gcl.Prog, plan Plan) StateStore {
	if plan.Store.Mode == StoreBitstate {
		return newBitstateStore(p, plan)
	}
	return newSeqStore(p, plan)
}

// prepare implements Prepare's key derivation for every store tier. A
// derived key (canonical, or carrying extra words) is a fresh allocation,
// so callers may hold several prepared keys at once. The engines' hot paths do not come here:
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

// fpEntry is one fpTable slot, 8 bytes with no Go pointers — eight slots
// per cache line, and nothing for the collector to scan. The high 32 bits
// are the key's fingerprint tag (its top 32 bits), the low 32 its keySlab
// index plus one; no index exceeds 2^32-2, so a used slot is never the
// all-zero word that marks an empty one.
type fpEntry uint64

func newFpEntry(fp uint64, i uint32) fpEntry { return fpEntry(fp>>32<<32 | uint64(i+1)) }

func (e fpEntry) index() uint32 { return uint32(e) - 1 }

// fpTable is the exact store's hash table, mapping keys to their keySlab
// indices: extendible hashing (Fagin, Nievergelt, Pippenger and Strong,
// ACM TODS 1979) over segments of fpSegSlots slots, each an open-addressed
// table probed linearly, wrapping inside the segment. A directory of 2^D
// entries picks a key's segment by the top D bits of its fingerprint tag;
// a segment of local depth d holds every tag with its d-bit prefix and is
// the target of 2^(D-d) consecutive entries. The tag's low fpSegLog2 bits
// give the home slot in the segment, so neither a split nor a deeper
// directory moves an entry off its home slot. A probe matches on the tag
// first (one integer compare) and confirms against the packed key in the
// slab, so membership is exact.
//
// Growth splits one segment at a time, never copying the table: a segment
// at 7/8 load moves its slots into a scratch segment and places them back,
// from their tags, into itself and one new segment, by the tag bit below
// its prefix; the directory doubles (a copy of its 2^D entries) only when
// the splitting segment's depth is D. Segments so stay between 7/16 and 7/8
// full, and the table never holds two copies of its slots. Not
// goroutine-safe: the merge is its only user.
type fpTable struct {
	dir []fpSegment
	// dshift is 64 - D, at most 63: a key's directory entry is its
	// fingerprint's top D bits. The directory starts at two entries, so
	// the shift needs no out-of-range case.
	dshift uint
	slab   *keySlab
	// scratch is the segment a split moves its slots into, allocated at
	// the first split and reused by every later one.
	scratch *[fpSegSlots]fpEntry
	// sink keeps prefetch's loads live; nothing reads it.
	sink fpEntry
}

// fpSegment is a segment as a directory entry holds it: its slots, which a
// probe so reaches in one load, and the count and depth that all of the
// segment's entries share.
type fpSegment struct {
	slots *[fpSegSlots]fpEntry
	*fpSegMeta
}

// fpSegMeta is a segment's used-slot count and local depth, the length of
// the tag prefix its keys share.
type fpSegMeta struct {
	n     int
	depth uint
}

const (
	// fpSegLog2 sizes a segment: 1024 slots, 8 KiB, also the smallest
	// table, so the refinement search's short-lived stores stay small.
	fpSegLog2  = 10
	fpSegSlots = 1 << fpSegLog2
	fpSegMask  = fpSegSlots - 1
	// fpSegLimit is the load at which a segment splits: 7/8. Its probes
	// stay short enough — eight slots share a cache line — and the table
	// is a fifth smaller across its life than at 0.7 load.
	fpSegLimit = fpSegSlots * 7 / 8
	// fpMaxDepth is the deepest a segment splits: its prefix then reaches
	// the home-slot bits of the tag. A segment at this depth fills past
	// fpSegLimit instead, which takes over 2^fpMaxDepth·fpSegLimit keys
	// or tags clustered far beyond what fmix64-finalized fingerprints
	// produce; it caps the directory at 2^22 entries either way.
	fpMaxDepth = 32 - fpSegLog2
)

// entry returns the directory entry of a fingerprint's tag.
func (t *fpTable) entry(fp uint64) *fpSegment { return &t.dir[fp>>(t.dshift&63)] }

// homeSlot returns a fingerprint's, or a slot's by its tag, first probe
// position in its segment: fmix64-finalized fingerprints are
// equidistributed in their tag bits.
func homeSlot(x uint64) uint64 { return x >> 32 & fpSegMask }

// find returns the slab index of key, a key of the slab's length, or -1
// when key is absent; wide reports whether key needs raw words
// (widthOf(key) == rawWidth).
func (t *fpTable) find(fp uint64, key gcl.State, wide bool) int {
	if t.dir == nil {
		return -1
	}
	slots := t.entry(fp).slots
	for i := homeSlot(fp); ; i++ {
		e := slots[i&fpSegMask]
		if e == 0 {
			return -1
		}
		if uint64(e)>>32 == fp>>32 && t.slab.match(e.index(), wide, key) {
			return int(e.index())
		}
	}
}

// prefetch loads the home slot of every probe in ps, so the lookups that
// follow find their first slot in cache. The slots are far larger than
// the caches, so nearly every probe's first load misses; issued back to
// back here, those misses overlap, where each lookup's own first load would
// wait behind the compares of the lookup before it.
func (t *fpTable) prefetch(ps []prep) {
	if t.dir == nil {
		return
	}
	var acc fpEntry
	for i := range ps {
		fp := ps[i].fp
		acc ^= t.entry(fp).slots[homeSlot(fp)]
	}
	t.sink ^= acc
}

// add enters slab entry i under fp. The entry must not be in the table
// yet: callers add right after a missed find, so the vector they just
// appended doubles as the key. It splits the key's segment first while
// that is at its load limit. It panics when a segment at fpMaxDepth is
// full: 1023 keys sharing a 22-bit tag prefix, which takes more keys than
// a slab indexes or fingerprints clustered far beyond fmix64's spread.
func (t *fpTable) add(fp uint64, i uint32) {
	if t.dir == nil {
		d := newFpSegment(0)
		t.dir, t.dshift = []fpSegment{d, d}, 63
	}
	seg := t.entry(fp)
	for seg.n >= fpSegLimit && seg.depth < fpMaxDepth {
		t.split(*seg, fp)
		seg = t.entry(fp)
	}
	if seg.n == fpSegSlots-1 {
		panic(fmt.Sprintf("mc: fingerprint table segment full: %d keys share its %d-bit tag prefix", seg.n, seg.depth))
	}
	seg.place(newFpEntry(fp, i))
}

// newFpSegment returns a new, empty segment of local depth d.
func newFpSegment(d uint) fpSegment {
	return fpSegment{new([fpSegSlots]fpEntry), &fpSegMeta{depth: d}}
}

// split divides seg, the segment of fingerprint fp, in two by the tag bit
// below its prefix: the keys with that bit clear stay, the others move to
// a new segment, each re-placed from its tag through the scratch segment.
// The directory doubles first when seg is as deep as it is.
func (t *fpTable) split(seg fpSegment, fp uint64) {
	d := seg.depth
	if d == 64-t.dshift {
		dir := make([]fpSegment, 2*len(t.dir))
		for k, e := range t.dir {
			dir[2*k], dir[2*k+1] = e, e
		}
		t.dir, t.dshift = dir, t.dshift-1
	}
	if t.scratch == nil {
		t.scratch = new([fpSegSlots]fpEntry)
	}
	*t.scratch = *seg.slots
	clear(seg.slots[:])
	up := newFpSegment(d + 1)
	seg.n, seg.depth = 0, d+1
	for _, e := range t.scratch {
		switch {
		case e == 0:
		case uint64(e)>>(63-d)&1 == 0:
			seg.place(e)
		default:
			up.place(e)
		}
	}
	// seg's directory entries are the span of indices sharing fp's top d
	// bits; their upper half now points to the new segment.
	span := 1 << (64 - t.dshift - d)
	lo := int(fp>>(t.dshift&63)) &^ (span - 1)
	for k := lo + span/2; k < lo+span; k++ {
		t.dir[k] = up
	}
}

// place puts a slot into the first free position of its probe sequence in
// the segment.
func (seg fpSegment) place(e fpEntry) {
	for i := homeSlot(uint64(e)); ; i++ {
		if seg.slots[i&fpSegMask] == 0 {
			seg.slots[i&fpSegMask] = e
			seg.n++
			return
		}
	}
}

// seqStore is the exact store: one table, no locks. Its keys are of one
// length (the keySlab's shape): Insert panics on a key of another length,
// and Lookup misses it. vals holds the value of each slab entry.
type seqStore struct {
	p    *gcl.Prog
	plan Plan
	slab keySlab
	t    fpTable
	vals []int32
}

func newSeqStore(p *gcl.Prog, plan Plan) *seqStore {
	st := &seqStore{p: p, plan: plan}
	st.slab.ar = spillArena(plan.Store)
	st.t.slab = &st.slab
	return st
}

// spillArena returns a fresh spill arena when so spills, else nil. It
// panics when the arena file cannot be created (a disk or temp-dir
// failure before the exploration starts).
func spillArena(so StoreOptions) *arena {
	if !so.Spill {
		return nil
	}
	ar, err := newArena(so.SpillDir)
	if err != nil {
		panic(err)
	}
	return ar
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

// hiSeedBase seeds the bitstate store's second hash, the double-hashing
// stride; xor-ing the run seed in re-rolls both hashes together.
const hiSeedBase = 0x243f6a8885a308d3

// bitstateStore is SPIN's supertrace/bitstate hashing: a fixed array of
// 2^log2 bits, k bits per state by double hashing. It stores no values
// (Lookup reports membership with val -1), so the planner disables POR
// alongside (the proviso needs stored depths) and every value-carrying
// analysis refuses it. It answers membership only: the engines number
// their states in a slab of their own beside it, which keeps traces. This
// is the frontier-probing tier; Report converts the final fill ratio
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
