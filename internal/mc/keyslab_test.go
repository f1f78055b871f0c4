package mc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

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
// also after the first block has doubled several times, through entries
// taken before the growth.
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
			if s.stride > 0 && (len(s.blocks) != 1 || cap(s.blocks[0]) <= keySlabFirst) {
				t.Fatalf("n=%d tail=%d: expected one grown first block, got %d blocks (cap %d)", n, tail, len(s.blocks), cap(s.blocks[0]))
			}
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

// TestKeySlabBlockBoundary fills past several full blocks, at each width:
// entry i sits in block i>>shift at offset (i mod 2^shift) × the block's
// stride, so none straddles; every block holds 2^shift entries, the most
// a power of two fits in 1 MiB at byte width; and indices address the
// right block.
func TestKeySlabBlockBoundary(t *testing.T) {
	const n = 37
	for w, key := range []func(i, n int) gcl.State{nibbleKey, byteKey, slabKey} {
		w := keyWidth(w)
		var s keySlab
		var last uint32
		for i := 0; len(s.blocks) < 3; i++ {
			last = s.append(key(i, n))
		}
		if s.width != w || s.stride != s.pays[w] || s.pays[w] != payLen(n, w) || payLen(n, w) != [...]int{5, 10, 37}[w] {
			t.Fatalf("width %d: slab width %d, %d payload words, stride %d", w, s.width, s.pays[w], s.stride)
		}
		per := uint32(1) << s.shift
		if byteStride := s.pays[byteWidth]; byteStride<<s.shift > keySlabBlock || byteStride<<(s.shift+1) <= keySlabBlock {
			t.Fatalf("width %d: %d entries per block, want the most a power of two fits in %d words of %d-word entries", w, per, keySlabBlock, byteStride)
		}
		if last != 2*per || last>>s.shift != 2 {
			t.Fatalf("width %d: last key at index %d in block %d, want the first of block 2", w, last, last>>s.shift)
		}
		for i := uint32(0); i <= last; i++ {
			k := s.packed(i)
			blk := s.blocks[i>>s.shift]
			if off := int(i&(per-1)) * s.stride; k.width != w || &k.words[0] != &blk[off] || off+s.stride > len(blk) {
				t.Fatalf("width %d: key %d is not at offset %d of block %d", w, i, off, i>>s.shift)
			}
			if got := s.at(i); !got.Equal(key(int(i), n)) {
				t.Fatalf("width %d: key %d: got %v", w, i, got)
			}
		}
		for _, b := range s.blocks[:2] {
			if len(b) != cap(b) || cap(b) != s.stride<<s.shift {
				t.Fatalf("width %d: full block has length %d, capacity %d, want %d", w, len(b), cap(b), s.stride<<s.shift)
			}
		}
	}
}

// TestKeySlabFullPanics presets a slab whose every index is taken (the
// blocks all share one full block, so the test allocates 1 MiB, not 16
// GiB): the top index, 2^32-2, must still address its entry, and the next
// append must panic clearly rather than wrap the index.
func TestKeySlabFullPanics(t *testing.T) {
	var s keySlab
	s.append(gcl.State{1, 2, 3})
	full := make([]int32, s.stride<<s.shift)
	s.blocks = make([][]int32, (keySlabMaxEntries>>s.shift)+1)
	for i := range s.blocks {
		s.blocks[i] = full
	}
	s.n = keySlabMaxEntries
	full[len(full)-2] = packPart(gcl.State{4, 5, 6}, 4)
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
// no per-state vectors in explorer.states, and one slab, shared by the
// engine and the store, holding each state once, as its entry at the
// state's own number, for both engines. Without symmetry the entry is the
// concrete vector; under symmetry it is the canonical key plus a
// witness-and-cursor tail, from which the engine decodes the concrete
// state. Every word of this cell fits four bits, so each key is packed
// eight words to an int32.
func TestExactTierSharesOneSlab(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	for _, workers := range []int{0, 2} {
		for _, sym := range []bool{false, true} {
			g, err := BuildGraph(p, Options{Workers: workers, Symmetry: sym})
			if err != nil {
				t.Fatal(err)
			}
			e := g.expl
			if e.trackPerms != sym {
				t.Fatalf("workers=%d symmetry=%v: quotient %v", workers, sym, e.trackPerms)
			}
			if e.states != nil {
				t.Fatalf("workers=%d symmetry=%v: exact tier kept %d per-state slices", workers, sym, len(e.states))
			}
			ss := e.store.(slabStore)
			if e.table != ss.table() || e.slab != ss.keys() {
				t.Fatalf("workers=%d symmetry=%v: the store does not share the engine's slab", workers, sym)
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
				want := g.State(i)
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
// slab holding, per state, its canonical key packed four bits per word and
// the tail — 4 words, nothing else — at workers 0 and 2.
func TestSymmetricSlabFootprint(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 4, M: 2})
	for _, workers := range []int{0, 2} {
		g, err := BuildGraph(p, Options{Workers: workers, Symmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		e := g.expl
		if n := e.numStates(); n != 18489 {
			t.Fatalf("workers=%d: %d states, want 18489", workers, n)
		}
		words := 0
		for _, b := range e.store.(*seqStore).slab.blocks {
			words += len(b)
		}
		perState := payLen(p.StateLen(), nibbleWidth) + p.TailLen()
		if perState != 4 || words != e.numStates()*perState {
			t.Errorf("workers=%d: slab holds %d words, %d per state; want 4 per state, %d", workers, words, perState, 4*e.numStates())
		}
	}
}

// TestFpTableAdversarialFingerprints grows a table from fpTableMinSize slots
// through nine doublings under chosen fingerprints. Keys come in groups of
// four that share one tag and so one home slot: two of them share the whole
// 64-bit fingerprint, the other two differ from it in the low 32 bits. The
// slab is preset so that every block but its last is taken (all aliasing
// one block the test never reads), and the last key lands at the top
// index, 2^32-2, under fingerprint 0, the slot word closest to the empty
// one. Every key must come back with its index, and absent keys — byte
// keys past every inserted one, and wide keys, which a byte slab cannot
// hold — must miss under every fingerprint.
func TestFpTableAdversarialFingerprints(t *testing.T) {
	key := func(i int) gcl.State { return gcl.State{int32(i & 0xff), int32(i >> 8 & 0xff), int32(i >> 16 & 0xff)} }
	slab := &keySlab{shaped: true, keyLen: 3}
	slab.layout()
	per := 1 << slab.shift
	full := make([]int32, slab.stride*per)
	slab.blocks = make([][]int32, keySlabMaxEntries>>slab.shift)
	for i := range slab.blocks {
		slab.blocks[i] = full
	}
	slab.n = uint32(len(slab.blocks) * per)
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
	for i := 0; slab.len() < keySlabMaxEntries; i++ {
		f := fp(i)
		if slab.len() == keySlabMaxEntries-1 {
			f = 0
		}
		if got := tab.find(f, key(i), false); got >= 0 {
			t.Fatalf("key %d found at index %d before its insert", i, got)
		}
		top = slab.append(key(i))
		tab.add(f, top)
		fps = append(fps, f)
	}
	base := uint32(len(slab.blocks)-1) << slab.shift
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
	if got := len(tab.ents); got < fpTableMinSize<<8 {
		t.Fatalf("table ended with %d slots for %d keys, want at least 8 doublings from %d",
			got, len(fps), fpTableMinSize)
	}
	if tab.n != len(fps) {
		t.Fatalf("table counts %d entries, inserted %d", tab.n, len(fps))
	}
	for i, f := range fps {
		if got := tab.find(f, key(i), false); got != int(base)+i {
			t.Fatalf("key %d (fp %#x): found at index %d, want %d", i, f, got, int(base)+i)
		}
		// Same fingerprint, different key: a byte key past every inserted
		// one, and a wide key.
		if got := tab.find(f, key(len(fps)+i), false); got >= 0 {
			t.Fatalf("absent key %v under fp %#x found at index %d", key(len(fps)+i), f, got)
		}
		if wide := (gcl.State{int32(i), 256, 0}); tab.find(f, wide, true) >= 0 {
			t.Fatalf("absent wide key %v under fp %#x found", wide, f)
		}
	}
}

// TestExactTableFootprint pins the growth policy and the per-state cost of
// the default exact tier on two cells, explored through the merge loop to
// their end at workers 0 and 2: bakerypp N=3 M=4 verifies at 87,724
// states and bakery N=4 M=4 stops at its overflow at 197,655. The table
// doubles at 7/8 load, so it ends with 2^17 and 2^18 slots, the first
// powers of two above 87,724/0.875 and 197,655/0.875 (at 0.7 load the
// second was 2^19). Every word of both cells fits four bits, so the slab
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
			e := exploreToStop(t, c.p, workers)
			if n := e.numStates(); n != c.states {
				t.Fatalf("%s workers=%d: %d states, want %d", c.p.Name, workers, n, c.states)
			}
			st := e.store.(*seqStore)
			if got := len(st.t.ents); got != c.slots {
				t.Errorf("%s workers=%d: table has %d slots, want %d", c.p.Name, workers, got, c.slots)
			}
			words := 0
			for _, b := range st.slab.blocks {
				words += len(b)
			}
			perState := payLen(c.p.StateLen(), nibbleWidth)
			if st.slab.width != nibbleWidth || perState != 2 || words != e.numStates()*perState {
				t.Errorf("%s workers=%d: slab of width %d holds %d words, %d per state; want 2 per state, %d",
					c.p.Name, workers, st.slab.width, words, perState, 2*e.numStates())
			}
		}
	}
}

// exploreToStop runs a safety check of p (mutual exclusion, no overflow)
// through the merge loop, as Check does, stopping at the first violating
// state, and returns the explorer for its store to be inspected.
func exploreToStop(t *testing.T, p *gcl.Prog, workers int) *explorer {
	t.Helper()
	opts := Options{Workers: workers, Invariants: []Invariant{Mutex(), NoOverflow()}}
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
// first block grows must still decode after it.
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
		var s keySlab
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
		// Grow the first block past its initial capacity.
		for i := 0; s.stride > 0 && cap(s.blocks[0]) <= keySlabFirst; i++ {
			s.append(byteKey(i, len(vecs[0])))
		}
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
	t.Run("mixed blocks", testKeySlabMixedBlocks)
}

// testKeySlabMixedBlocks fills a slab whose long tails leave 128 entries
// per block with nibble vectors for a block and a half, then byte vectors,
// then raw ones, each width arriving partway into a block. The open block
// is re-encoded at each widening and every full block keeps the width it
// opened at, so the slab ends with nibble, byte and raw blocks. Every
// entry must decode, with its tail, through the slab and through the entry
// taken when it was appended, and match exactly the vectors Equal to it,
// in blocks of every width.
func testKeySlabMixedBlocks(t *testing.T) {
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
	var s keySlab
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
	want := []keyWidth{nibbleWidth, byteWidth, rawWidth, rawWidth}
	for b, w := range want {
		if got := s.blockWidth(uint32(b)); got != w {
			t.Errorf("block %d has width %d, want %d", b, got, w)
		}
	}
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
				t.Errorf("entry %d (block width %d) matches vector %d: %v", i, s.blockWidth(uint32(i)>>s.shift), j, m)
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
// per block. The run appends the pair into a first block, then again
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
						t.Fatalf("entry %v matches %v: %v, Equal says %v (block width %d)", e.v, u, got, want, s.blockWidth(e.i>>s.shift))
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
			if want := widthOf(w); s.width < want || s.blockWidth((s.n-1)>>s.shift) != s.width {
				t.Fatalf("after %v the slab has width %d, its last block %d", w, s.width, s.blockWidth((s.n-1)>>s.shift))
			}
		}
		if got, want := s.blockWidth(0), max(widthOf(va), widthOf(vb)); got != want {
			t.Fatalf("the first block, full before any widening, has width %d, want %d", got, want)
		}
	})
}
