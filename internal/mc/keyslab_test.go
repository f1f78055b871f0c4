package mc

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// hasPointers reports whether values of type t hold any Go pointer the
// collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestFpEntryLayout pins the table slot at 8 bytes (eight per cache line)
// with no Go pointers, so the slot array is never scanned by the collector.
func TestFpEntryLayout(t *testing.T) {
	typ := reflect.TypeOf(fpEntry(0))
	if typ.Size() != 8 {
		t.Errorf("fpEntry is %d bytes, want 8", typ.Size())
	}
	if hasPointers(typ) {
		t.Error("fpEntry holds a Go pointer")
	}
	if !hasPointers(reflect.TypeOf(gcl.State(nil))) {
		t.Fatal("hasPointers misses slices")
	}
}

// at decodes entry i into a fresh slice.
func (s *keySlab) at(i uint32) gcl.State {
	v := make(gcl.State, s.keyLen)
	s.packed(i).decode(v)
	return v
}

// nibbleKey builds a deterministic test key of n words in 0..15.
func nibbleKey(i, n int) gcl.State {
	k := make(gcl.State, n)
	for j := range k {
		k[j] = int32((i*7 + j*13) & 0xf)
	}
	return k
}

// slabKey builds a deterministic test key of n words, wide past i = 1.
func slabKey(i, n int) gcl.State {
	k := make(gcl.State, n)
	for j := range k {
		k[j] = int32(i*131 + j)
	}
	return k
}

// byteKey builds a deterministic test key of n words in 0..255.
func byteKey(i, n int) gcl.State {
	k := make(gcl.State, n)
	for j := range k {
		k[j] = int32((i*7 + j*13) & 0xff)
	}
	return k
}

// TestKeySlabRoundTrip appends keys of one length per slab, empty ones
// included, with and without a tail, and reads every key and tail back —
// also after the slab has opened several geometrically growing blocks,
// through entries taken before the growth.
func TestKeySlabRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5, 22} {
		for _, tail := range []int{0, 3} {
			var s keySlab
			var early []packedKey
			for i := 0; i < 2000; i++ {
				j, tl := s.appendTail(byteKey(i, n), widthOf(byteKey(i, n)), tail)
				if int(j) != i {
					t.Fatalf("n=%d tail=%d: key %d appended at index %d", n, tail, i, j)
				}
				for w := range tl {
					tl[w] = int32(i + w)
				}
				if i < 10 {
					early = append(early, s.packed(j))
				}
			}
			if s.stride > 0 && len(s.blocks) < 2 {
				t.Fatalf("n=%d tail=%d: expected blocks past the first, got %d", n, tail, len(s.blocks))
			}
			checkSlabBlocks(t, &s)
			check := func(i int, k packedKey) {
				t.Helper()
				got := make(gcl.State, n)
				k.decode(got)
				if !got.Equal(byteKey(i, n)) {
					t.Fatalf("n=%d tail=%d: key %d decodes as %v", n, tail, i, got)
				}
				if len(k.tail()) != tail {
					t.Fatalf("n=%d tail=%d: key %d has tail %v", n, tail, i, k.tail())
				}
				for w, x := range k.tail() {
					if x != int32(i+w) {
						t.Fatalf("n=%d tail=%d: key %d has tail %v", n, tail, i, k.tail())
					}
				}
			}
			for i := 0; i < s.len(); i++ {
				check(i, s.packed(uint32(i)))
			}
			for i, k := range early {
				check(i, k)
			}
		}
	}
}

// checkSlabBlocks checks the geometric block layout of s: block b holds
// 2^min(first+b, shift) entries; every block was opened at exactly its
// capacity and every block but the open one is full, so no block was ever
// grown or copied.
func checkSlabBlocks(t *testing.T, s *keySlab) {
	t.Helper()
	start := 0
	for b, blk := range s.blocks {
		want := 1 << min(int(s.first)+b, int(s.shift))
		stride := s.pays[s.blockWidth(uint32(b))] + s.tailLen
		if got := s.entries(uint32(b)); got != want || cap(blk) != want*stride {
			t.Fatalf("block %d: %d entries in %d words of %d-word entries, want %d entries", b, got, cap(blk), stride, want)
		}
		if b < len(s.blocks)-1 && len(blk) != cap(blk) {
			t.Fatalf("block %d of %d is not full: length %d, capacity %d", b, len(s.blocks), len(blk), cap(blk))
		}
		if lb, j := s.locate(uint32(start)); lb != uint32(b) || j != 0 {
			t.Fatalf("index %d, the first of block %d, locates to block %d position %d", start, b, lb, j)
		}
		if start > 0 {
			if lb, j := s.locate(uint32(start - 1)); lb != uint32(b-1) || int(j) != s.entries(lb)-1 {
				t.Fatalf("index %d, the last of block %d, locates to block %d position %d", start-1, b-1, lb, j)
			}
		}
		start += want
	}
}

// TestKeySlabBlockBoundary fills past several full blocks, at each width:
// entry i sits at its position in its block (locate) × the block's stride,
// so none straddles; the blocks grow geometrically from about keySlabFirst
// words to 2^shift entries, the most a power of two fits in 1 MiB at byte
// width, and are never copied; and indices address the right block.
func TestKeySlabBlockBoundary(t *testing.T) {
	const n = 37
	for w, key := range []func(i, n int) gcl.State{nibbleKey, byteKey, slabKey} {
		w := keyWidth(w)
		var s keySlab
		var last uint32
		for i := 0; len(s.blocks) < 3+int(s.shift-s.first); i++ {
			last = s.append(key(i, n))
		}
		if s.width != w || s.stride != s.pays[w] || s.pays[w] != payLen(n, w) || payLen(n, w) != [...]int{5, 10, 37}[w] {
			t.Fatalf("width %d: slab width %d, %d payload words, stride %d", w, s.width, s.pays[w], s.stride)
		}
		per := uint32(1) << s.shift
		if byteStride := s.pays[byteWidth]; byteStride<<s.shift > keySlabBlock || byteStride<<(s.shift+1) <= keySlabBlock {
			t.Fatalf("width %d: %d entries per block, want the most a power of two fits in %d words of %d-word entries", w, per, keySlabBlock, byteStride)
		}
		if byteStride := s.pays[byteWidth]; byteStride<<s.first > keySlabFirst || byteStride<<(s.first+1) <= keySlabFirst {
			t.Fatalf("width %d: %d entries in the first block, want the most a power of two fits in %d words", w, 1<<s.first, keySlabFirst)
		}
		if b, j := s.locate(last); int(b) != len(s.blocks)-1 || j != 0 || s.entries(b-2) != int(per) {
			t.Fatalf("width %d: last key at index %d, position %d of block %d, want the first of the third full block", w, last, j, b)
		}
		checkSlabBlocks(t, &s)
		for i := uint32(0); i <= last; i++ {
			k := s.packed(i)
			b, j := s.locate(i)
			blk := s.blocks[b]
			if off := int(j) * s.stride; k.width != w || &k.words[0] != &blk[off] || off+s.stride > len(blk) {
				t.Fatalf("width %d: key %d is not at offset %d of block %d", w, i, off, b)
			}
			if got := s.at(i); !got.Equal(key(int(i), n)) {
				t.Fatalf("width %d: key %d: got %v", w, i, got)
			}
		}
	}
}

// presetFull makes every block of s before the one holding index i share
// one full-size block, so a test reaches the top indices allocating 1 MiB,
// not 16 GiB; the blocks hold nothing a test reads. It returns that block.
func presetFull(s *keySlab, i uint32) []int32 {
	full := make([]int32, s.stride<<s.shift)
	b, j := s.locate(i)
	s.blocks = make([][]int32, b)
	for k := range s.blocks {
		s.blocks[k] = full[:s.entries(uint32(k))*s.stride]
	}
	s.n = i - j
	return full
}

// TestKeySlabFullPanics presets a slab whose every index is taken (the
// blocks all share one full block, see presetFull): the top index, 2^32-2,
// must still address its entry, and the next append must panic clearly
// rather than wrap the index.
func TestKeySlabFullPanics(t *testing.T) {
	var s keySlab
	s.append(gcl.State{1, 2, 3})
	full := presetFull(&s, keySlabMaxEntries)
	s.blocks = append(s.blocks, full)
	s.n = keySlabMaxEntries
	_, j := s.locate(1<<32 - 2)
	full[int(j)*s.stride] = packPart(gcl.State{4, 5, 6}, 4)
	if got := s.at(1<<32 - 2); !got.Equal(gcl.State{4, 5, 6}) {
		t.Fatalf("top index decodes as %v", got)
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "key slab full") {
			t.Fatalf("append past 2^32-1 entries: recovered %v, want a key-slab-full panic", r)
		}
	}()
	s.append(gcl.State{1, 2, 3})
}

// TestKeySlabShapePanics: a slab's first append fixes its key and tail
// lengths, and an append of another shape panics naming both.
func TestKeySlabShapePanics(t *testing.T) {
	for _, c := range []struct{ n, tail int }{{4, 0}, {3, 1}, {0, 0}} {
		func() {
			var s keySlab
			s.append(gcl.State{1, 2, 3})
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "3-word keys with 0-word tails") ||
					!strings.Contains(msg, fmt.Sprintf("%d-word keys with %d-word tails", c.n, c.tail)) {
					t.Fatalf("append of %d words with a %d-word tail: recovered %q", c.n, c.tail, msg)
				}
			}()
			s.appendTail(make(gcl.State, c.n), nibbleWidth, c.tail)
		}()
	}
}

// warmTable returns a sequential store holding keys under their
// fingerprints, key i with value i.
func warmTable(keys []gcl.State, fps []uint64) *seqStore {
	st := newSeqStore(nil, Plan{})
	for i, k := range keys {
		st.Insert(fps[i], k, int32(i))
	}
	return st
}

func tableKeys(n int) ([]gcl.State, []uint64) {
	keys := make([]gcl.State, n)
	fps := make([]uint64, n)
	for i := range keys {
		keys[i] = slabKey(i, 12)
		fps[i] = keys[i].Fingerprint()
	}
	return keys, fps
}

// TestFpTableLookupAllocFree: a warmed table answers hits and misses
// without allocating.
func TestFpTableLookupAllocFree(t *testing.T) {
	keys, fps := tableKeys(20000)
	st := warmTable(keys[:10000], fps[:10000])
	allocs := testing.AllocsPerRun(20, func() {
		for i := range keys {
			if _, ok := st.Lookup(fps[i], keys[i]); ok != (i < 10000) {
				t.Fatalf("key %d: present %v", i, ok)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warmed lookups allocate %.1f objects per sweep, want 0", allocs)
	}
}

// TestFpTableInsertAmortized: filling a fresh table — slot growth plus key
// copies into the slab — costs well under 0.01 allocations per key.
func TestFpTableInsertAmortized(t *testing.T) {
	keys, fps := tableKeys(100000)
	allocs := testing.AllocsPerRun(5, func() { warmTable(keys, fps) })
	if perKey := allocs / float64(len(keys)); perKey >= 0.01 {
		t.Errorf("inserts allocate %.4f objects per key (%.0f per fill), want < 0.01", perKey, allocs)
	}
}

// TestExactTierSharesOneSlab pins the residency of the default exact tier:
// one slab, shared by the engine and its table, holding each state once,
// as its entry at the state's own number, for both engines. Without symmetry the entry is the
// concrete vector; under symmetry it is the canonical key plus a
// witness-and-cursor tail, from which the engine decodes the concrete
// state. Every word of this cell fits four bits, so each key is packed
// eight words to an int32.
func TestExactTierSharesOneSlab(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	for _, workers := range []int{0, 2} {
		for _, sym := range []bool{false, true} {
			e := checkExplorer(t, p, Options{Workers: workers, Symmetry: sym})
			if e.symmetry != sym {
				t.Fatalf("workers=%d symmetry=%v: reduced %v", workers, sym, e.symmetry)
			}
			if e.table.slab != e.slab {
				t.Fatalf("workers=%d symmetry=%v: the table does not probe the engine's slab", workers, sym)
			}
			tail := 0
			if sym {
				tail = p.TailLen()
			}
			if e.tailLen != tail {
				t.Fatalf("workers=%d symmetry=%v: %d tail words per entry, want %d", workers, sym, e.tailLen, tail)
			}
			words := 0
			for _, b := range e.slab.blocks {
				words += len(b)
			}
			if e.slab.len() != e.numStates() || words != e.numStates()*(payLen(p.StateLen(), nibbleWidth)+tail) {
				t.Fatalf("workers=%d symmetry=%v: slab holds %d entries in %d words for %d states of %d words — vectors stored twice?",
					workers, sym, e.slab.len(), words, e.numStates(), p.StateLen())
			}
			for i := 0; i < e.numStates(); i++ {
				key := e.slab.at(uint32(i))
				want := e.stateAt(int32(i))
				if sym {
					want = p.Canonicalize(want)
				}
				if !key.Equal(want) {
					t.Fatalf("workers=%d symmetry=%v: state %d is keyed %v, want %v", workers, sym, i, key, want)
				}
			}
		}
	}
}

// TestSymmetricSlabFootprint pins the per-state cost of the symmetric
// exact tier: the quotient of bakerypp N=4 M=2 (18,489 states) ends in one
// slab holding, per state, its canonical key packed four bits per word (2
// words) and the tail, eight 3-bit fields in one word — 3 words, nothing
// else — at workers 0 and 2.
func TestSymmetricSlabFootprint(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 4, M: 2})
	for _, workers := range []int{0, 2} {
		e := checkExplorer(t, p, Options{Workers: workers, Symmetry: true})
		if n := e.numStates(); n != 18489 {
			t.Fatalf("workers=%d: %d states, want 18489", workers, n)
		}
		words := 0
		for _, b := range e.slab.blocks {
			words += len(b)
		}
		perState := payLen(p.StateLen(), nibbleWidth) + p.TailLen()
		if perState != 3 || words != e.numStates()*perState {
			t.Errorf("workers=%d: slab holds %d words, %d per state; want 3 per state, %d", workers, words, perState, 3*e.numStates())
		}
	}
}

// TestFpTableAdversarialFingerprints grows a table from one segment
// through eight rounds of splits under chosen fingerprints. Keys come in
// groups of four that share one tag and so one home slot: two of them
// share the whole 64-bit fingerprint, the other two differ from it in the
// low 32 bits. The slab is preset so that every block but its last two is
// taken (presetFull), and the last key lands at the top index, 2^32-2,
// under fingerprint 0, the slot word closest to the empty one. Every key
// must come back with its index, and absent keys — byte keys past every
// inserted one, and wide keys, which a byte slab cannot hold — must miss
// under every fingerprint. The subtests add probe runs that wrap inside a
// segment, tag groups that a split takes apart, and a directory that
// deepens far past its segment count.
func TestFpTableAdversarialFingerprints(t *testing.T) {
	slab := &keySlab{shaped: true, keyLen: 3}
	slab.layout()
	presetFull(slab, keySlabMaxEntries-1-1<<slab.shift)
	tab := &fpTable{slab: slab}
	fp := func(i int) uint64 {
		base := gcl.State{int32(i / 4)}.Fingerprint()
		if i%4 < 2 {
			return base
		}
		return base&^0xffffffff | uint64(uint32(i))
	}

	var fps []uint64
	var top uint32
	base := uint32(slab.len())
	for i := 0; slab.len() < keySlabMaxEntries; i++ {
		f := fp(i)
		if slab.len() == keySlabMaxEntries-1 {
			f = 0
		}
		if got := tab.find(f, tableKey(i), false); got >= 0 {
			t.Fatalf("key %d found at index %d before its insert", i, got)
		}
		top = slab.append(tableKey(i))
		tab.add(f, top)
		fps = append(fps, f)
	}
	if top != 1<<32-2 {
		t.Fatalf("last key stored at index %#x, want %#x", top, uint32(1<<32-2))
	}
	if e := newFpEntry(0, top); e == 0 || e.index() != top {
		t.Fatalf("top index encodes as %#x", uint64(e))
	}
	// Index 0 under fingerprint 0 is the other slot word next to empty.
	low := newSeqStore(nil, Plan{})
	low.Insert(0, gcl.State{}, 7)
	if v, ok := low.Lookup(0, gcl.State{}); !ok || v != 7 {
		t.Fatalf("empty key at index 0 under fingerprint 0: got %d, %v", v, ok)
	}
	if got := tableSlots(tab); got < fpSegSlots<<8 {
		t.Fatalf("table ended with %d slots for %d keys, want at least 8 rounds of splits from %d",
			got, len(fps), fpSegSlots)
	}
	checkFpTable(t, tab, len(fps))
	checkFpFinds(t, tab, fps, base)

	// Keys whose tags' low bits put them at the last slots of their
	// segment: the runs wrap to the segment's first slots.
	t.Run("wrapping runs", func(t *testing.T) {
		var fps []uint64
		for i := 0; i < 3000; i++ {
			f := gcl.State{int32(i)}.Fingerprint()&^(fpSegMask<<32) | uint64(fpSegMask-i%3)<<32
			fps = append(fps, f)
		}
		tab := fillFpTable(t, fps)
		wrapped := 0
		for _, sg := range tableSegments(tab) {
			for i := 0; sg.slots[i] != 0; i++ {
				wrapped++
			}
		}
		if wrapped == 0 {
			t.Fatal("no probe run wrapped past the end of its segment")
		}
	})
	// Groups of tags that differ in one bit of their top ten, each split
	// by the split at that depth, with one home slot per group.
	t.Run("groups across a split", func(t *testing.T) {
		var fps []uint64
		for g := 0; len(fps) < 12000; g++ {
			f := gcl.State{int32(g)}.Fingerprint()
			for d := 0; d < 10; d++ {
				fps = append(fps, f, f^1<<(63-d), f^1<<(63-d)^0xffff)
			}
		}
		tab := fillFpTable(t, fps)
		if segs := len(tableSegments(tab)); segs < 16 {
			t.Fatalf("%d keys fill %d segments, want at least 16", len(fps), segs)
		}
	})
	// Tags sharing their top twelve bits: the one segment that holds them
	// splits twelve times, so the directory deepens to 2^13 entries over a
	// handful of segments.
	t.Run("deep directory", func(t *testing.T) {
		var fps []uint64
		for i := 0; i < 3*fpSegLimit; i++ {
			fps = append(fps, 0xabc<<52|gcl.State{int32(i)}.Fingerprint()>>12)
		}
		tab := fillFpTable(t, fps)
		if segs := len(tableSegments(tab)); len(tab.dir) < 1<<13 || segs > 20 {
			t.Fatalf("directory of %d entries over %d segments, want at least %d entries over at most 20", len(tab.dir), segs, 1<<13)
		}
	})
}

// tableKey is the i-th key of the fpTable tests: three byte words.
func tableKey(i int) gcl.State {
	return gcl.State{int32(i & 0xff), int32(i >> 8 & 0xff), int32(i >> 16 & 0xff)}
}

// fillFpTable enters tableKey(i) under fps[i] into a fresh slab and table,
// each absent before its insert, and checks the table's structure and
// that every key comes back.
func fillFpTable(t *testing.T, fps []uint64) *fpTable {
	t.Helper()
	slab := &keySlab{}
	tab := &fpTable{slab: slab}
	for i, f := range fps {
		if got := tab.find(f, tableKey(i), false); got >= 0 {
			t.Fatalf("key %d found at index %d before its insert", i, got)
		}
		tab.add(f, slab.append(tableKey(i)))
	}
	checkFpTable(t, tab, len(fps))
	checkFpFinds(t, tab, fps, 0)
	return tab
}

// checkFpFinds checks that tableKey(i), entered under fps[i], is found at
// index base+i, and that absent keys miss under every fingerprint: a byte
// key past every inserted one, and a wide key.
func checkFpFinds(t *testing.T, tab *fpTable, fps []uint64, base uint32) {
	t.Helper()
	for i, f := range fps {
		if got := tab.find(f, tableKey(i), false); got != int(base)+i {
			t.Fatalf("key %d (fp %#x): found at index %d, want %d", i, f, got, int(base)+i)
		}
		if got := tab.find(f, tableKey(len(fps)+i), false); got >= 0 {
			t.Fatalf("absent key %v under fp %#x found at index %d", tableKey(len(fps)+i), f, got)
		}
		if wide := (gcl.State{int32(i), 256, 0}); tab.find(f, wide, true) >= 0 {
			t.Fatalf("absent wide key %v under fp %#x found", wide, f)
		}
	}
}

// tableSegments returns the distinct segments of tab in directory order.
func tableSegments(tab *fpTable) []fpSegment {
	var segs []fpSegment
	for k := 0; k < len(tab.dir); k += 1 << (64 - tab.dshift - tab.dir[k].depth) {
		segs = append(segs, tab.dir[k])
	}
	return segs
}

// tableSlots returns tab's slot count, fpSegSlots per segment.
func tableSlots(tab *fpTable) int { return len(tableSegments(tab)) * fpSegSlots }

// checkFpTable checks the extendible-hashing structure of tab, which holds
// keys keys: each segment is the target of exactly the 2^(D-d) aligned
// directory entries of its d-bit prefix, holds only tags with that prefix,
// counts its used slots, and keeps every entry reachable from its home
// slot without crossing an empty one; the counts add up to keys.
func checkFpTable(t *testing.T, tab *fpTable, keys int) {
	t.Helper()
	depth := 64 - tab.dshift
	if len(tab.dir) != 1<<depth {
		t.Fatalf("directory of %d entries at depth %d", len(tab.dir), depth)
	}
	n := 0
	for k := 0; k < len(tab.dir); {
		sg := tab.dir[k]
		span := 1 << (depth - sg.depth)
		if k%span != 0 || sg.depth > fpMaxDepth {
			t.Fatalf("segment of depth %d first referenced at entry %d of %d", sg.depth, k, len(tab.dir))
		}
		for j := k; j < k+span; j++ {
			if tab.dir[j] != sg {
				t.Fatalf("entry %d does not point to the segment of entries %d..%d", j, k, k+span-1)
			}
		}
		used := 0
		for i, e := range sg.slots {
			if e == 0 {
				continue
			}
			used++
			if int(uint64(e)>>(tab.dshift&63))>>(depth-sg.depth) != k>>(depth-sg.depth) {
				t.Fatalf("tag %#x in the segment of entries %d..%d", uint64(e)>>32, k, k+span-1)
			}
			for h := homeSlot(uint64(e)); h != uint64(i); h = (h + 1) & fpSegMask {
				if sg.slots[h] == 0 {
					t.Fatalf("entry %#x at slot %d: empty slot %d on its probe from %d", uint64(e), i, h, homeSlot(uint64(e)))
				}
			}
		}
		if used != sg.n || (sg.n > fpSegLimit && sg.depth < fpMaxDepth) {
			t.Fatalf("segment at entry %d counts %d used slots, holds %d (limit %d)", k, sg.n, used, fpSegLimit)
		}
		n += used
		k += span
	}
	if n != keys {
		t.Fatalf("table holds %d keys, want %d", n, keys)
	}
}

// TestExactTableFootprint pins the growth policy and the per-state cost of
// the default exact tier on two cells, explored through the merge loop to
// their end at workers 0 and 2: bakerypp N=3 M=4 verifies at 87,724
// states and bakery N=4 M=4 stops at its overflow at 197,655. A segment
// splits at 7/8 load, so the tables end with 2^7 and 2^8 segments of 1024
// slots, no segment split past the first depth at which 87,724/0.875 and
// 197,655/0.875 keys fit, the same 2^17 and 2^18 slots a table doubling at
// 7/8 load ended with (at 0.7 load the second was 2^19). Every word of both cells fits four bits, so the slab
// holds each state vector once, eight words to an int32 and nothing else:
// 2 words per state.
func TestExactTableFootprint(t *testing.T) {
	for _, c := range []struct {
		p      *gcl.Prog
		states int
		slots  int
	}{
		{specs.BakeryPP(specs.Config{N: 3, M: 4}), 87724, 1 << 17},
		{specs.Bakery(specs.Config{N: 4, M: 4}), 197655, 1 << 18},
	} {
		for _, workers := range []int{0, 2} {
			e := exploreToStop(t, c.p, Options{Workers: workers})
			if n := e.numStates(); n != c.states {
				t.Fatalf("%s workers=%d: %d states, want %d", c.p.Name, workers, n, c.states)
			}
			if got := tableSlots(e.table); got != c.slots {
				t.Errorf("%s workers=%d: table has %d slots, want %d", c.p.Name, workers, got, c.slots)
			}
			words := 0
			for _, b := range e.slab.blocks {
				words += len(b)
			}
			perState := payLen(c.p.StateLen(), nibbleWidth)
			if e.slab.width != nibbleWidth || perState != 2 || words != e.numStates()*perState {
				t.Errorf("%s workers=%d: slab of width %d holds %d words, %d per state; want 2 per state, %d",
					c.p.Name, workers, e.slab.width, words, perState, 2*e.numStates())
			}
		}
	}
}

// TestStoreGrowthCopiesNothing: the store allocates only memory it keeps.
// A Check's allocated bytes (runtime.MemStats.TotalAlloc) stay within
// 1.15 times the capacity of its final store — slab blocks, table segments
// and directory, parent column — plus a fixed allowance for the expansion
// scratch, the pre-pass's included, and the counterexample, so no growth
// step may copy the store or leave a garbage copy behind. The store's
// capacity is read off the same exploration run through the merge loop
// (exploreToStop). Copying growth — a table doubling into a fresh array, a
// first slab block doubling by copy — allocated 7.28 MB for about 4.8 MB
// of store on bakery N=4 M=4.
func TestStoreGrowthCopiesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const allowance = 1 << 20
	for _, c := range []struct {
		p    *gcl.Prog
		opts Options
	}{
		{specs.Bakery(specs.Config{N: 4, M: 4}), Options{}},
		{specs.Bakery(specs.Config{N: 4, M: 4}), Options{Workers: 2}},
		{specs.BakeryPP(specs.Config{N: 5, M: 3}), Options{Symmetry: true, POR: true}},
	} {
		name := fmt.Sprintf("%s workers=%d symmetry=%v", c.p.Name, c.opts.Workers, c.opts.Symmetry)
		store := storeBytes(exploreToStop(t, c.p, c.opts))
		opts := c.opts
		opts.Invariants = []Invariant{Mutex(), NoOverflow()}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := Check(c.p, opts)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d states, store %d bytes, Check allocated %d (%.2fx)", name, res.States, store, alloc, float64(alloc)/float64(store))
		if limit := uint64(store)*115/100 + allowance; alloc > limit {
			t.Errorf("%s: Check allocated %d bytes for a store of %d, over 1.15x + %d = %d", name, alloc, store, allowance, limit)
		}
	}
}

// storeBytes returns the capacity of e's store in bytes: its slab blocks,
// its table's segments, segment records, directory and scratch, and its
// parent column.
func storeBytes(e *explorer) int {
	n := 0
	for _, b := range e.slab.blocks {
		n += 4 * cap(b)
	}
	if t := e.table; t != nil {
		segs := len(tableSegments(t))
		n += segs*(8*fpSegSlots+int(unsafe.Sizeof(fpSegMeta{}))) + len(t.dir)*int(unsafe.Sizeof(fpSegment{}))
		if t.scratch != nil {
			n += 8 * fpSegSlots
		}
	}
	return n + len(e.parent.pages)*columnPage*4
}

// exploreToStop runs a safety check of p (mutual exclusion, no overflow)
// under opts through the merge loop, as Check does, stopping at the first
// violating state, and returns the explorer for its store to be inspected.
func exploreToStop(t *testing.T, p *gcl.Prog, opts Options) *explorer {
	t.Helper()
	opts.Invariants = []Invariant{Mutex(), NoOverflow()}
	plan, err := planFor(p, opts, SafetyAnalysis{Invariants: opts.Invariants})
	if err != nil {
		t.Fatal(err)
	}
	e := newExplorer(p, opts, plan)
	defer e.join()
	e.addInit(p.InitState())
	violated := false
	for head := int32(0); !violated && int(head) < e.numStates(); head++ {
		x := e.expansionOf(head)
		lo, hi := e.commit(x, e.depthOf(head))
		for i := lo; i < hi && !violated; i++ {
			_, fresh := e.addSucc(x, i, head)
			violated = fresh && e.checkInvariants(x.succs[i].State) >= 0
		}
	}
	return e
}

// TestKeySlabPacking round-trips vectors of all three widths, one slab per
// length: words at the nibble boundary (15, 16), at the byte boundary
// (255, 256), at the 16-bit boundary (65535, 65536), negative ones, and
// zero-length vectors. Each slab takes its narrowest vectors first, so it
// widens mid-run, nibble to byte to raw, at the first vector too wide for
// the open block. Every vector must come back word for word — through its
// entry after the widenings, and through the entry taken when it was
// appended, which keeps the width it was written in — and match itself but
// none of the others, including near-collisions whose words would coincide
// if a 16 or a 256 were shifted into the next nibble or byte, such as
// [16,0] against [0,1] and [256,0] against [0,1]. Entries taken before the
// slab opens its later blocks must still decode after it.
func TestKeySlabPacking(t *testing.T) {
	groups := [][]gcl.State{
		{{}},
		{{0}, {15}, {16}, {255}, {256}, {-1}, {65535}, {65536}},
		{{0, 1}, {1, 0}, {16, 0}, {0, 16}, {256, 0}, {0, 256}},
		{{15, 15, 15, 15, 15, 15, 15, 15}, {1, 2, 3, 4, 5, 6, 7, 8}, {15, 15, 15, 15, 15, 15, 15, 16},
			{0, 1, 0, 0, 0, 0, 0, 0}, {16, 0, 0, 0, 0, 0, 0, 0}, {255, 255, 255, 255, 255, 255, 255, 255},
			{255, 255, 255, 256, 0, 0, 0, 0}, {-1, 255, 255, 255, 0, 0, 0, 0}},
		{{1, 2, 3, 4, 5, 6, 7, 8, 9}, {1, 2, 3, 4, 5, 6, 7, 8, 9 + 16}, {1, 2, 3, 4, 5, 6, 7, 8, 9 + 256}},
		{{1, 2, 3, 4, 5, 0}, {65535, 65536, -65536, 1 << 30, -1 << 31, 1<<31 - 1}},
		{{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}},
	}
	for _, vecs := range groups {
		for _, s := range []*keySlab{{}, {ar: testArena(t)}} {
			checkKeySlabPacking(t, s, vecs)
		}
	}
	t.Run("mixed blocks", func(t *testing.T) { testKeySlabMixedBlocks(t, &keySlab{}) })
	t.Run("mixed blocks spilled", func(t *testing.T) {
		ar := testArena(t)
		testKeySlabMixedBlocks(t, &keySlab{ar: ar})
		if ar.bytes() == 0 {
			t.Fatal("the spilled slab mapped no arena chunk")
		}
	})
}

// checkKeySlabPacking appends vecs to s, one group of TestKeySlabPacking,
// and checks their widths, decodes and matches.
func checkKeySlabPacking(t *testing.T, s *keySlab, vecs []gcl.State) {
	t.Helper()
	var early []packedKey
	widest := nibbleWidth
	for i, v := range vecs {
		widest = max(widest, widthOf(v))
		if idx := s.append(v); int(idx) != i {
			t.Fatalf("%v appended at index %d, want %d", v, idx, i)
		}
		if s.width != widest {
			t.Fatalf("after %v the slab has width %d, want %d", v, s.width, widest)
		}
		k := s.packed(uint32(i))
		if k.width != widest || len(k.words) != payLen(len(v), widest) {
			t.Errorf("%v: payload of %d words at width %d, want %d at width %d", v, len(k.words), k.width, payLen(len(v), widest), widest)
		}
		early = append(early, k)
	}
	// Open several blocks past the first.
	for i := 0; s.stride > 0 && len(s.blocks) < 4; i++ {
		s.append(byteKey(i, len(vecs[0])))
	}
	checkSlabBlocks(t, s)
	for i, v := range vecs {
		for _, k := range []packedKey{s.packed(uint32(i)), early[i]} {
			got := make(gcl.State, len(v))
			k.decode(got)
			if !got.Equal(v) {
				t.Fatalf("%v decoded as %v (width %d)", v, got, k.width)
			}
		}
		for j, u := range vecs {
			if got := s.match(uint32(i), widthOf(u) == rawWidth, u); got != (i == j) {
				t.Errorf("entry %v matches %v: %v", v, u, got)
			}
		}
	}
}

// testArena returns a spill arena in the test's temporary directory,
// unmapped when the test ends.
func testArena(t *testing.T) *arena {
	t.Helper()
	ar, err := newArena(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ar.close)
	return ar
}

// TestArenaBlocks: blocks carved from the spill arena have the capacity
// asked for and keep what is written into them, and a block that does not
// fit the rest of the newest chunk opens the next one; a block larger than
// a chunk panics.
func TestArenaBlocks(t *testing.T) {
	ar := testArena(t)
	const chunk = arenaChunkSize / 4 // words
	sizes := []int{chunk / 2, chunk / 4, chunk/4 + 1, 2, chunk}
	chunks := []int64{1, 1, 2, 2, 3}
	var blocks [][]int32
	for i, n := range sizes {
		b := ar.block(n)
		if len(b) != 0 || cap(b) != n {
			t.Fatalf("block %d: len %d cap %d, want 0 and %d", i, len(b), cap(b), n)
		}
		b = b[:n]
		b[0], b[n-1] = int32(i+1), int32(-i-1)
		blocks = append(blocks, b)
		if got := ar.bytes(); got != chunks[i]*arenaChunkSize {
			t.Fatalf("after block %d the arena maps %d bytes, want %d chunks", i, got, chunks[i])
		}
	}
	for i, b := range blocks {
		if b[0] != int32(i+1) || b[len(b)-1] != int32(-i-1) {
			t.Fatalf("block %d lost its words: [%d ... %d]", i, b[0], b[len(b)-1])
		}
	}
	if b := ar.block(0); b != nil {
		t.Fatalf("empty block is %v, want nil", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a block larger than a chunk did not panic")
		}
	}()
	ar.block(chunk + 1)
}

// testKeySlabMixedBlocks fills a slab whose long tails leave 128 entries
// per block with nibble vectors for a block and a half, then byte vectors,
// then raw ones, each width arriving partway into a block. The open block
// is re-encoded at each widening and every full block keeps the width it
// opened at, so the slab ends with nibble, byte and raw blocks. Every
// entry must decode, with its tail, through the slab and through the entry
// taken when it was appended, and match exactly the vectors Equal to it,
// in blocks of every width.
func testKeySlabMixedBlocks(t *testing.T, s *keySlab) {
	const n, tail = 9, 2000
	vec := func(i int) gcl.State {
		v := nibbleKey(i, n)
		v[0], v[1], v[2] = int32(i&0xf), int32(i>>4&0xf), int32(i>>8)
		switch {
		case i >= 330:
			v[3+i%(n-3)] = int32(-i)
		case i >= 190:
			v[3+i%(n-3)] = int32(16 + i%240)
		}
		return v
	}
	var early []packedKey
	const total = 460
	for i := 0; i < total; i++ {
		v := vec(i)
		j, tl := s.appendTail(v, widthOf(v), tail)
		if int(j) != i {
			t.Fatalf("vector %d appended at index %d", i, j)
		}
		tl[0], tl[tail-1] = int32(i), int32(-i)
		early = append(early, s.packed(j))
	}
	if per := 1 << s.shift; per != 128 {
		t.Fatalf("%d entries per block, want 128", per)
	}
	// The geometric blocks hold 1, 2, ..., 64 entries up to index 126 and
	// were full before any widening; the full-size blocks start at 127,
	// 255 and 383, and the first two were open at a widening.
	for i, w := range map[uint32]keyWidth{0: nibbleWidth, 126: nibbleWidth, 127: byteWidth, 254: byteWidth, 255: rawWidth, 383: rawWidth} {
		if b, _ := s.locate(i); s.blockWidth(b) != w {
			t.Errorf("entry %d's block %d has width %d, want %d", i, b, s.blockWidth(b), w)
		}
	}
	checkSlabBlocks(t, s)
	got := make(gcl.State, n)
	for i := 0; i < total; i++ {
		for _, k := range []packedKey{s.packed(uint32(i)), early[i]} {
			k.decode(got)
			if tl := k.tail(); !got.Equal(vec(i)) || len(tl) != tail || tl[0] != int32(i) || tl[tail-1] != int32(-i) {
				t.Fatalf("entry %d decodes as %v, tail [%d ... %d] at width %d; want %v", i, got, tl[0], tl[tail-1], k.width, vec(i))
			}
		}
	}
	probes := []int{0, 1, 127, 128, 150, 189, 190, 255, 256, 300, 329, 330, 459}
	for _, i := range probes {
		for _, j := range probes {
			u := vec(j)
			if m := s.match(uint32(i), widthOf(u) == rawWidth, u); m != (i == j) {
				b, _ := s.locate(uint32(i))
				t.Errorf("entry %d (block width %d) matches vector %d: %v", i, s.blockWidth(b), j, m)
			}
		}
	}
}

// FuzzKeySlabPacked: on random vector pairs, decoding an appended vector
// returns it, and a slab match holds exactly when State.Equal does, in
// blocks of every width. A vector is read from its bytes one word per
// nibble (mode bits 0-1 are 0 for the first vector, bits 2-3 for the
// second), one word per byte (1) or one little-endian int32 per four bytes
// (2 or 3), so all three widths, and pairs that share their payload bits
// but not their width, come up; a slab holds one key length, so the longer
// vector is cut to the shorter one's length. Long tails leave four entries
// per full block, and the geometric blocks before them hold one and two
// entries. The run appends the pair into the first blocks, then again
// before a vector holding 16 and again before one holding 256, each of
// which widens the open block partway, so the slab ends with blocks of
// every width the pair allows: entries from every block, and the entries
// taken before each re-encoding, must decode with their tails, and match
// must agree with Equal throughout.
func FuzzKeySlabPacked(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0}, []byte{0, 1}, byte(6))    // [256,0] vs [0,1]
	f.Add([]byte{0, 1}, []byte{0, 1, 0, 0, 0, 0, 0, 0}, byte(9))    // [0,1] vs [256,0]
	f.Add([]byte{255, 0, 0, 0}, []byte{255}, byte(6))               // [255] as byte and raw
	f.Add([]byte{}, []byte{}, byte(0))                              // empty vectors
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{1, 2, 3, 4, 5, 0}, byte(5)) // byte pair, widened by the run
	f.Add([]byte{255, 255, 255, 255}, []byte{255, 255, 255, 255}, byte(10))
	f.Add([]byte{0x10}, []byte{0x01}, byte(0))                                                 // [0,1] vs [1,0] as nibbles
	f.Add([]byte{16, 0}, []byte{0x10}, byte(1))                                                // [16,0] vs [0,1]: 16 in the next nibble
	f.Add([]byte{15, 15, 15, 15}, []byte{15, 15, 15, 15, 0}, byte(5))                          // nibble-valued bytes
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{0, 0, 0, 0}, byte(10))                        // [-1] vs [0]
	f.Add([]byte{0x21, 0x43, 0x65, 0x87, 0xa9}, []byte{0x21, 0x43, 0x65, 0x87, 0xa8}, byte(0)) // [1..10] vs [1..8,8,10]: full nibble words
	vec := func(b []byte, mode byte) gcl.State {
		switch mode & 3 {
		case 0:
			v := make(gcl.State, 2*len(b))
			for i, x := range b {
				v[2*i], v[2*i+1] = int32(x&0xf), int32(x>>4)
			}
			return v
		case 1:
			v := make(gcl.State, len(b))
			for i, x := range b {
				v[i] = int32(x)
			}
			return v
		}
		v := make(gcl.State, len(b)/4)
		for i := range v {
			v[i] = int32(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24)
		}
		return v
	}
	f.Fuzz(func(t *testing.T, a, b []byte, mode byte) {
		va, vb := vec(a, mode), vec(b, mode>>2)
		n := min(len(va), len(vb))
		va, vb = va[:n], vb[:n]
		var s keySlab
		tail := keySlabBlock/4 - payLen(n, byteWidth)
		type entry struct {
			i uint32
			k packedKey
			v gcl.State
		}
		var ents []entry
		add := func(v gcl.State) {
			i, tl := s.appendTail(v, widthOf(v), tail)
			tl[0], tl[tail-1] = int32(i), int32(^i)
			ents = append(ents, entry{i, s.packed(i), v})
		}
		probes := []gcl.State{va, vb}
		check := func() {
			t.Helper()
			for _, e := range ents {
				for _, k := range []packedKey{e.k, s.packed(e.i)} {
					got := make(gcl.State, n)
					k.decode(got)
					if tl := k.tail(); !got.Equal(e.v) || tl[0] != int32(e.i) || tl[tail-1] != int32(^e.i) {
						t.Fatalf("%v decoded as %v with tail [%d ... %d] (width %d)", e.v, got, tl[0], tl[tail-1], k.width)
					}
				}
				for _, u := range probes {
					if got, want := s.match(e.i, widthOf(u) == rawWidth, u), e.v.Equal(u); got != want {
						b, _ := s.locate(e.i)
						t.Fatalf("entry %v matches %v: %v, Equal says %v (block width %d)", e.v, u, got, want, s.blockWidth(b))
					}
				}
			}
		}
		add(va)
		add(vb)
		check()
		if n == 0 {
			return
		}
		if s.shift != 2 {
			t.Fatalf("%d entries per block, want 4", 1<<s.shift)
		}
		zero := make(gcl.State, n)
		add(zero)
		add(zero)
		for _, x := range []int32{16, 256} {
			w := make(gcl.State, n)
			w[n-1] = x
			probes = append(probes, w)
			add(va)
			add(vb)
			add(w)
			add(zero)
			check()
			last, _ := s.locate(s.n - 1)
			if want := widthOf(w); s.width < want || s.blockWidth(last) != s.width {
				t.Fatalf("after %v the slab has width %d, its last block %d", w, s.width, s.blockWidth(last))
			}
		}
		if b, _ := s.locate(1); s.blockWidth(b) != max(widthOf(va), widthOf(vb)) {
			t.Fatalf("the block holding the pair's second, full before any widening, has width %d, want %d",
				s.blockWidth(b), max(widthOf(va), widthOf(vb)))
		}
		checkSlabBlocks(t, &s)
	})
}
