package gcl

// Process-symmetry support: the permutation action on states and the
// canonical-representative computation the model checker's symmetry-aware
// visited store is built on (Clarke/Emerson-style symmetry reduction, the
// analog of TLC's SYMMETRY declaration and Murphi's scalarsets).
//
// A specification declares its symmetry group at construction time:
// SetSymmetry(FullSymmetry) states that the program treats process
// identities interchangeably, and the per-variable declarations tell the
// layer where identities live in the state vector — shared arrays indexed
// by pid (every Own'd array implicitly, plus PidIndexed ones), the
// per-process [pc, locals...] blocks (always), and locals that are pid
// scan cursors (PidLocal, e.g. the bakery trial-loop index j).
//
// Permute applies one permutation: pid-indexed cells and process blocks
// relocate from slot i to slot perm[i]; cell and local values are never
// rewritten. Canonicalize picks the lexicographically-least image of the
// state over the permutations *valid for that state*, so two states merge
// exactly when one is a valid image of the other:
//
//   - An active cursor value j means "this process has already checked
//     processes 0..j-1"; a permutation respects that history only if it
//     preserves the set {0..j-1}. Valid permutations are therefore the
//     ones that permute within the segments the active cursor values cut
//     out of 0..N-1 (a Young subgroup; with no cursor mid-scan it is the
//     whole group). It depends only on the cursor values, which relocation
//     leaves in place, so validity is orbit-invariant and the canonical
//     form is well-defined.
//   - The permutation action relocates per-process columns (a process's
//     cells of the pid-indexed arrays, then its block), and each segment's
//     slots are permuted independently, so the least image places every
//     segment's columns in sorted order — a stable insertion sort per
//     segment, O(N²) column comparisons, as in Murphi's scalarset
//     canonicalization. Stability makes the witness the lexicographically
//     first permutation reaching that image. Pinned canonicalization
//     (pinned.go) is the same sort with the pinned slots left out.
//
// The naive alternative — remapping cursor VALUES through the permutation
// and canonicalizing over the full group — is measurably unsound here: it
// merges states whose scan histories are incompatible, and on 4-process
// Bakery the over-pruning severs the ticket-growth paths entirely, turning
// the overflow VIOLATION verdict into a false "verified". The segment
// rule keeps every merge history-consistent.
//
// Soundness note for callers: even valid permutations are only
// quasi-automorphisms for most specifications here — the bakery tie-break
// (number[j], j) < (number[i], i) and Szymanski's id-ordered room draining
// consult the concrete id order. Canonical forms are therefore safe for
// duplicate detection (merging a state with an earlier orbit-mate), but
// exploring a canonical *image* in place of a reachable state can
// fabricate unreachable behaviours. internal/mc's symmetry store only
// ever dedups; see docs/model-checking.md.

import (
	"cmp"
	"fmt"
	"math/bits"
)

// Symmetry identifies the process-permutation group a program declares.
type Symmetry uint8

const (
	// NoSymmetry (the default) declares the trivial group: no two process
	// identities are interchangeable, and symmetry reduction degrades to
	// the full search.
	NoSymmetry Symmetry = iota
	// FullSymmetry declares the full symmetric group on process ids: the
	// program is (quasi-)invariant under every permutation of 0..N-1 that
	// respects the declared scan cursors.
	FullSymmetry
)

// String returns the group name.
func (y Symmetry) String() string {
	switch y {
	case NoSymmetry:
		return "none"
	case FullSymmetry:
		return "full"
	}
	return fmt.Sprintf("symmetry(%d)", uint8(y))
}

// maxEnumProcs caps the process count pinned canonicalization (pinned.go)
// serves, the FCFS monitor's reduction: 8 processes, already far beyond
// what explicit-state exploration of that product can cover anyway.
const maxEnumProcs = 8

// maxCursorProcs caps the process count of programs with scan cursors:
// canonicalization collects the active cursor values in a 32-bit mask.
const maxCursorProcs = 32

// maxCanonProcs caps the process count of every canonicalizable program:
// a witness permutation is carried one byte per pid (KeySlab.Witness).
const maxCanonProcs = 255

// SetSymmetry declares the program's process-permutation group. Must be
// called before Build.
func (p *Prog) SetSymmetry(y Symmetry) {
	if p.built {
		panic("gcl: cannot declare symmetry after Build")
	}
	p.sym = y
}

// Symmetry returns the declared process-permutation group.
func (p *Prog) Symmetry() Symmetry { return p.sym }

// PidIndexed marks a shared array as indexed by process id, so Permute
// relocates cell i to cell perm[i]. Own'd arrays are pid-indexed
// implicitly; PidIndexed is for size-N arrays that are per-process without
// being crash-reset. Must be called before Build.
func (p *Prog) PidIndexed(name string) {
	if p.built {
		panic("gcl: cannot declare after Build")
	}
	if p.pidIndexed == nil {
		p.pidIndexed = map[string]bool{}
	}
	p.pidIndexed[name] = true
}

// PidLocal marks a per-process local as a pid scan cursor: its value j
// means the process has already visited pids 0..j-1 (j = N meaning "done",
// the bakery-family trial-loop shape). Canonicalization then only applies
// permutations that preserve every active cursor's visited prefix as a
// set, keeping merges consistent with scan history.
//
// liveAt optionally lists the labels at which the cursor is LIVE (read
// before being rewritten). At every other label the canonical key
// normalizes the cursor to 0 — classic dead-variable reduction, sound
// exactly when every path from a non-listed label rewrites the cursor
// before reading it (the bakery family resets j at its doorway-done step,
// so the stale previous-round value outside t1..t4 is pure key noise).
// With no liveAt list the cursor is treated as live everywhere. Must be
// called before Build.
func (p *Prog) PidLocal(name string, liveAt ...string) {
	if p.built {
		panic("gcl: cannot declare after Build")
	}
	if p.pidLocals == nil {
		p.pidLocals = map[string][]string{}
	}
	if liveAt == nil {
		liveAt = []string{}
	}
	p.pidLocals[name] = liveAt
}

// buildSymmetry resolves the symmetry declarations against the layout;
// called from Build after the offsets exist.
func (p *Prog) buildSymmetry() error {
	for name := range p.owned {
		if p.pidIndexed == nil {
			p.pidIndexed = map[string]bool{}
		}
		p.pidIndexed[name] = true
	}
	// Deterministic order (declaration order) so canonical comparison has
	// a fixed word order — the state vector's own layout order.
	for _, d := range p.shared {
		if !p.pidIndexed[d.Name] {
			continue
		}
		info := p.sharedInfo[d.Name]
		if info.size != p.N {
			return fmt.Errorf("gcl: %s: pid-indexed array %q must have size N=%d, has %d",
				p.Name, d.Name, p.N, info.size)
		}
		p.pidArrayOffs = append(p.pidArrayOffs, info.off)
	}
	for name := range p.pidIndexed {
		if _, ok := p.sharedInfo[name]; !ok {
			return fmt.Errorf("gcl: %s: pid-indexed variable %q not declared shared", p.Name, name)
		}
	}
	for _, d := range p.locals {
		liveAt, isCursor := p.pidLocals[d.Name]
		if !isCursor {
			continue
		}
		p.pidLocalOffs = append(p.pidLocalOffs, p.localInfo[d.Name].off)
		// liveMask rows are per-label bitsets over the cursors (in
		// pidLocalOffs order); an unset bit means the cursor is dead at
		// that label and normalized away in canonical keys.
		cursorBit := uint32(1) << uint(len(p.pidLocalOffs)-1)
		if p.cursorLive == nil {
			p.cursorLive = make([]uint32, len(p.labels))
		}
		if len(liveAt) == 0 {
			for li := range p.cursorLive {
				p.cursorLive[li] |= cursorBit
			}
		} else {
			for _, lbl := range liveAt {
				li, ok := p.labelIdx[lbl]
				if !ok {
					return fmt.Errorf("gcl: %s: cursor %q live-at label %q not declared", p.Name, d.Name, lbl)
				}
				p.cursorLive[li] |= cursorBit
			}
		}
	}
	for name := range p.pidLocals {
		if _, ok := p.localInfo[name]; !ok {
			return fmt.Errorf("gcl: %s: pid-valued local %q not declared", p.Name, name)
		}
	}
	return nil
}

// NormalizeCursors returns a copy of s with every dead scan cursor zeroed:
// for each process, cursors whose bit is clear in the liveness mask of the
// process's current label are set to 0. This is the key-normalization the
// canonical layer applies; the graph exploration stores every state
// normalized (the dead-cursor reset), Check never does.
func (p *Prog) NormalizeCursors(s State) State {
	out := p.Clone(s)
	p.normalizeCursorsInPlace(out)
	return out
}

// NormalizeCursorsInPlace is NormalizeCursors mutating a caller-owned
// state — the allocation-free variant the model checker's dead-cursor
// reset applies to every successor of a graph exploration.
func (p *Prog) NormalizeCursorsInPlace(s State) { p.normalizeCursorsInPlace(s) }

// normalizeCursorsInPlace is NormalizeCursors on a caller-owned copy.
func (p *Prog) normalizeCursorsInPlace(s State) {
	if len(p.pidLocalOffs) == 0 || p.cursorLive == nil {
		return
	}
	for i := 0; i < p.N; i++ {
		base := p.sharedLen + i*p.localLen
		live := p.cursorLive[s[base]]
		for ci, lo := range p.pidLocalOffs {
			if live&(1<<uint(ci)) == 0 {
				s[base+lo] = 0
			}
		}
	}
}

// Permute returns the image of s under the process permutation perm, where
// perm[i] is the new identity of process i: pid-indexed shared cells and
// per-process blocks move from slot i to slot perm[i]; all values —
// including scan cursors, which count a prefix rather than naming a pid —
// are copied unchanged, and other shared variables stay in place.
func (p *Prog) Permute(s State, perm []int) State {
	out := make(State, len(s))
	p.permuteInto(out, s, perm)
	return out
}

// permuteInto is Permute into a caller-owned buffer.
func (p *Prog) permuteInto(out State, s State, perm []int) {
	if !p.built {
		panic("gcl: Permute before Build")
	}
	if len(perm) != p.N {
		panic(fmt.Sprintf("gcl: %s: Permute needs a permutation of %d ids, got %d", p.Name, p.N, len(perm)))
	}
	// The layout is held in locals and blocks are copied word by word: the
	// blocks are a few words long, and this runs once per canonicalized
	// successor.
	n, sl, ll := p.N, p.sharedLen, p.localLen
	copy(out[:sl], s[:sl])
	for _, off := range p.pidArrayOffs {
		from, to := s[off:off+n], out[off:off+n]
		for i, q := range perm {
			to[q] = from[i]
		}
	}
	for i, q := range perm {
		from := s[sl+i*ll : sl+(i+1)*ll]
		to := out[sl+q*ll:]
		to = to[:len(from)]
		for k, v := range from {
			to[k] = v
		}
	}
}

// A symmetry tail records, next to a state's canonical key, what
// canonicalization dropped: the witness permutation, one field per pid
// (field i is the slot process i moved to), then the raw value of every
// scan cursor, one field per pid per cursor in pid-major order. Every field
// is bits.Len(N) bits wide — a witness entry lies in 0..N-1 and a cursor in
// 0..N (PidLocal) — and the fields are packed low bits first into int32
// words, a field straddling two words where it falls so. Restore rebuilds
// the concrete state, dead cursor values included, from the key and its
// tail, so a store can keep the key alone in place of both vectors.

// tailBits is the width of one tail field.
func (p *Prog) tailBits() uint { return uint(bits.Len(uint(p.N))) }

// TailLen returns the number of int32 words of a symmetry tail:
// ⌈N·(1+cursors)·bits.Len(N)/32⌉.
func (p *Prog) TailLen() int {
	return (p.N*(1+len(p.pidLocalOffs))*int(p.tailBits()) + 31) / 32
}

// tailField returns the b-bit field of a packed tail that starts at bit pos.
func tailField(tail []int32, pos, b uint) int {
	w := pos >> 5
	x := uint64(uint32(tail[w]))
	if pos&31+b > 32 {
		x |= uint64(uint32(tail[w+1])) << 32
	}
	return int(x >> (pos & 31) & (1<<b - 1))
}

// PackTail writes into tail (TailLen words) the tail of concrete state s
// canonicalized with witness wit (N bytes, as KeySlab.Witness returns). It
// panics, naming the state, on a cursor value outside 0..N.
func (p *Prog) PackTail(tail []int32, wit []byte, s State) {
	n, sl, ll := p.N, p.sharedLen, p.localLen
	if len(tail) != p.TailLen() || len(wit) != n || len(s) != sl+n*ll {
		panic(fmt.Sprintf("gcl: %s: PackTail needs a %d-word tail, a %d-byte witness and a %d-word state, got %d, %d and %d",
			p.Name, p.TailLen(), n, sl+n*ll, len(tail), len(wit), len(s)))
	}
	// Fields accumulate in acc, have bits of it pending, and are stored a
	// word at a time.
	b := p.tailBits()
	var acc uint64
	var have uint
	w := 0
	put := func(v uint32) {
		acc |= uint64(v) << have
		if have += b; have >= 32 {
			tail[w], acc, have = int32(uint32(acc)), acc>>32, have-32
			w++
		}
	}
	for _, x := range wit {
		put(uint32(x))
	}
	for q := 0; q < n; q++ {
		blk := s[sl+q*ll : sl+(q+1)*ll]
		for _, lo := range p.pidLocalOffs {
			v := uint32(blk[lo])
			if v > uint32(n) {
				p.cursorOverflow(s, q, blk[lo])
			}
			put(v)
		}
	}
	if have > 0 {
		tail[w] = int32(uint32(acc))
	}
}

// cursorOverflow panics on a cursor value PackTail cannot record.
func (p *Prog) cursorOverflow(s State, q int, v int32) {
	panic(fmt.Sprintf("gcl: %s: scan cursor of process %d holds %d, outside the 0..%d a symmetry tail records, in state %s",
		p.Name, q, v, p.N, p.Format(s)))
}

// Restore writes into dst the concrete state whose canonical key is key
// and whose symmetry tail is tail: key permuted back through the witness
// (process q's column is the key's column at slot witness[q]), then every
// scan cursor set to its recorded raw value. It inverts canonicalization
// exactly: Restore(Canonicalize(s), tail of s) is s, bit for bit.
func (p *Prog) Restore(dst, key State, tail []int32) {
	n, sl, ll := p.N, p.sharedLen, p.localLen
	if len(dst) != sl+n*ll || len(key) != len(dst) || len(tail) != p.TailLen() {
		panic(fmt.Sprintf("gcl: %s: Restore needs a %d-word destination and key and a %d-word tail, got %d, %d and %d",
			p.Name, sl+n*ll, p.TailLen(), len(dst), len(key), len(tail)))
	}
	copy(dst[:sl], key[:sl])
	arrays, cursors := p.pidArrayOffs, p.pidLocalOffs
	b := p.tailBits()
	ci := uint(n) * b // bit position of the next cursor value
	for q := 0; q < n; q++ {
		src := tailField(tail, uint(q)*b, b)
		for _, off := range arrays {
			dst[off+q] = key[off+src]
		}
		d := dst[sl+q*ll : sl+(q+1)*ll]
		from := key[sl+src*ll:]
		from = from[:len(d)]
		for k := range d {
			d[k] = from[k]
		}
		for _, lo := range cursors {
			d[lo] = int32(tailField(tail, ci, b))
			ci += b
		}
	}
}

// PermValid reports whether perm respects the scan history of s: for every
// declared cursor local of every process, the visited prefix {0..j-1} must
// be preserved as a set (equivalently, perm maps it onto itself). States
// merged by canonicalization are always related by a valid permutation.
func (p *Prog) PermValid(s State, perm []int) bool {
	if len(perm) != p.N {
		panic(fmt.Sprintf("gcl: %s: PermValid needs a permutation of %d ids, got %d", p.Name, p.N, len(perm)))
	}
	for _, lo := range p.pidLocalOffs {
		for i := 0; i < p.N; i++ {
			j := int(s[p.sharedLen+i*p.localLen+lo])
			if j <= 0 || j >= p.N {
				continue // empty or complete prefix constrains nothing
			}
			for q := 0; q < j; q++ {
				if perm[q] >= j {
					return false
				}
			}
		}
	}
	return true
}

// CanCanonicalize reports whether the program supports canonicalization:
// full symmetry declared, at most maxCanonProcs processes (witnesses are
// carried one byte per pid), and — when it has scan cursors — no more
// than maxCursorProcs.
func (p *Prog) CanCanonicalize() bool {
	return p.built && p.sym == FullSymmetry && p.N <= maxCanonProcs &&
		(len(p.pidLocalOffs) == 0 || p.N <= maxCursorProcs)
}

// Canonicalize returns the canonical representative of s's orbit: the
// lexicographically-least image of the cursor-normalized state vector
// (NormalizeCursors) over the permutations valid for it. Two states
// canonicalize equally iff their normalized forms are valid images of one
// another; the result is freshly allocated. Safe for concurrent use.
func (p *Prog) Canonicalize(s State) State {
	w := p.canonWorker()
	defer p.canonPool.Put(w)
	c := w.canonicalize(s)
	out := make(State, len(c))
	copy(out, c)
	return out
}

// CanonicalFingerprint returns the fingerprint of the canonical
// representative of s's orbit — the probe key of the symmetry-aware
// visited store. Invariant under every valid process permutation of s.
// Safe for concurrent use.
func (p *Prog) CanonicalFingerprint(s State) uint64 {
	w := p.canonWorker()
	defer p.canonPool.Put(w)
	return w.canonicalize(s).Fingerprint()
}

// Canonicalizer is a reusable canonicalization context: it owns the
// normalization, image, permutation and order scratch buffers that the
// pooled Prog.Canonicalize variants copy out of, so a caller that holds one
// per goroutine canonicalizes with zero heap allocations. The result of
// every method aliases the context's scratch and is valid only until the
// next call; callers that retain a canonical key must copy it first. A
// Canonicalizer must not be shared between goroutines.
type Canonicalizer struct {
	w *canonicalizer
	// pinned is the mask of pids whose slots every canonicalization leaves
	// in place (NewPinnedCanonicalizer); 0 for the full group.
	pinned uint32
}

// NewCanonicalizer returns a dedicated canonicalization context for the
// program. Requires CanCanonicalize.
func (p *Prog) NewCanonicalizer() *Canonicalizer {
	if !p.CanCanonicalize() {
		panic(fmt.Sprintf("gcl: %s: canonicalization unavailable (symmetry %v, %d scan cursors, N=%d)",
			p.Name, p.sym, len(p.pidLocalOffs), p.N))
	}
	return &Canonicalizer{w: newCanonicalizer(p)}
}

// Canonicalize returns the canonical representative of s's orbit in the
// context's scratch buffer — the zero-allocation form of Prog.Canonicalize.
func (c *Canonicalizer) Canonicalize(s State) State {
	c.w.canonicalizeInto(c.w.buf, nil, s, c.pinned)
	return c.w.buf
}

// Fingerprint returns the fingerprint of the canonical representative of
// s's orbit — the zero-allocation form of Prog.CanonicalFingerprint.
func (c *Canonicalizer) Fingerprint(s State) uint64 {
	return c.Canonicalize(s).Fingerprint()
}

// canonWorker hands out a scratch canonicalizer from the program's pool.
func (p *Prog) canonWorker() *canonicalizer {
	if !p.CanCanonicalize() {
		panic(fmt.Sprintf("gcl: %s: canonicalization unavailable (symmetry %v, %d scan cursors, N=%d)",
			p.Name, p.sym, len(p.pidLocalOffs), p.N))
	}
	if w, ok := p.canonPool.Get().(*canonicalizer); ok {
		return w
	}
	return newCanonicalizer(p)
}

func newCanonicalizer(p *Prog) *canonicalizer {
	return &canonicalizer{
		p:        p,
		buf:      make(State, p.StateLen()),
		norm:     make(State, p.StateLen()),
		bestPerm: make([]int, p.N),
		order:    make([]int, 0, p.N),
	}
}

// canonicalizer holds the per-call scratch of one canonicalization; pooled
// on the program so concurrent exploration workers never share buffers.
type canonicalizer struct {
	p        *Prog
	buf      State
	norm     State
	bestPerm []int
	order    []int
}

// canonicalize computes the least valid image of the cursor-normalized
// state into w.buf and returns it (valid until the worker is reused) with
// the witnessing permutation in w.bestPerm.
func (w *canonicalizer) canonicalize(s State) State {
	w.canonicalizeInto(w.buf, nil, s, 0)
	return w.buf
}

// canonicalizeInto is canonicalize writing the canonical image into a
// caller-owned destination of StateLen words — the KeySlab batch path
// (soa.go) canonicalizes straight into slab slots through it, skipping the
// scratch-then-copy round trip — and, when wit is non-nil, the witness
// into it one byte per pid (wit[i] is the slot process i moves to). Pids in
// pinned keep their slots.
func (w *canonicalizer) canonicalizeInto(dst State, wit []byte, s State, pinned uint32) {
	copy(w.norm, s)
	w.p.normalizeCursorsInPlace(w.norm)
	w.sortSegments(dst, wit, w.norm, w.cursorMask(w.norm), pinned)
}

// cursorMask collects the active cursor values of s as a bitmask: bit j is
// set when some process has visited exactly the prefix 0..j-1 (0 < j < N),
// which a valid permutation must preserve.
func (w *canonicalizer) cursorMask(s State) uint32 {
	p := w.p
	var mask uint32
	for _, lo := range p.pidLocalOffs {
		for i := 0; i < p.N; i++ {
			if j := int(s[p.sharedLen+i*p.localLen+lo]); j > 0 && j < p.N {
				mask |= 1 << uint(j)
			}
		}
	}
	return mask
}

// sortSegments writes into dst the least image of s over the permutations
// that map every segment cut out by cursors onto itself (bit j set: slot j
// starts a segment) and fix every pid in pinned, and leaves in w.bestPerm
// the lexicographically first permutation reaching it — in wit too, one
// byte per pid, when wit is non-nil. The action relocates per-process
// columns (compareColumns order), so the least image places each
// segment's unpinned columns in sorted order on its unpinned slots; the
// segments are independent because each owns its own words of the
// flattened vector. The insertion sort is stable — a column only passes a
// strictly greater one — so identical columns keep their pid order, which
// is exactly the lexicographically first witness.
func (w *canonicalizer) sortSegments(dst State, wit []byte, s State, cursors, pinned uint32) {
	p := w.p
	// order lists the unpinned pids by destination slot, sorted within
	// each segment; start is where the current segment begins in it.
	order := w.order[:0]
	start, seg := 0, -1
	for q := 0; q < p.N; q++ {
		if pinned&(1<<uint(q)) != 0 {
			continue
		}
		if sq := bits.OnesCount32(cursors & (2<<uint(q) - 1)); sq != seg {
			start, seg = len(order), sq
		}
		order = append(order, q)
		for j := len(order) - 1; j > start && compareColumns(p, s, order[j], order[j-1]) < 0; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	k := 0
	for q := 0; q < p.N; q++ {
		src := q
		if pinned&(1<<uint(q)) == 0 {
			src = order[k]
			k++
		}
		w.bestPerm[src] = q
		if wit != nil {
			wit[src] = byte(q)
		}
	}
	p.permuteInto(dst, s, w.bestPerm)
}

// compareColumns orders process columns by the state-layout word order:
// each pid-indexed array cell in declaration order, then the block words.
// Words are compared, not subtracted: a difference of words 2^31 or more
// apart would wrap.
func compareColumns(p *Prog, s State, i, j int) int {
	for _, off := range p.pidArrayOffs {
		if c := cmp.Compare(s[off+i], s[off+j]); c != 0 {
			return c
		}
	}
	bi, bj := p.sharedLen+i*p.localLen, p.sharedLen+j*p.localLen
	for k := 0; k < p.localLen; k++ {
		if c := cmp.Compare(s[bi+k], s[bj+k]); c != 0 {
			return c
		}
	}
	return 0
}
