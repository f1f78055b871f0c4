package mc

import (
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

// slabKey builds a deterministic test key of n words.
func slabKey(i, n int) gcl.State {
	k := make(gcl.State, n)
	for j := range k {
		k[j] = int32(i*131 + j)
	}
	return k
}

// TestKeySlabRoundTrip appends keys of mixed lengths, including empty ones,
// and reads every one back — also after the first block has doubled
// several times, through slices taken before the growth.
func TestKeySlabRoundTrip(t *testing.T) {
	var s keySlab
	var refs []uint32
	var early []gcl.State
	for i := 0; i < 2000; i++ {
		refs = append(refs, s.append(slabKey(i, i%23)))
		if i < 10 {
			early = append(early, s.at(refs[i]))
		}
	}
	if len(s.blocks) != 1 || cap(s.blocks[0]) <= keySlabFirst {
		t.Fatalf("expected one grown first block, got %d blocks (cap %d)", len(s.blocks), cap(s.blocks[0]))
	}
	for i, ref := range refs {
		if got := s.at(ref); !got.Equal(slabKey(i, i%23)) {
			t.Fatalf("key %d: got %v", i, got)
		}
	}
	for i, k := range early {
		if !k.Equal(slabKey(i, i%23)) {
			t.Fatalf("key %d read before growth changed to %v", i, k)
		}
	}
}

// TestKeySlabBlockBoundary fills past several full blocks: a key that does
// not fit the rest of a block starts the next one, so none straddles, and
// references address the right block.
func TestKeySlabBlockBoundary(t *testing.T) {
	var s keySlab
	const n = 37
	var refs []uint32
	for i := 0; len(s.blocks) < 3; i++ {
		refs = append(refs, s.append(slabKey(i, n)))
	}
	for i, ref := range refs {
		if off := int(ref & (keySlabBlock - 1)); off+keySlabHeader+n > keySlabBlock {
			t.Fatalf("key %d straddles its block (offset %d)", i, off)
		}
		if got := s.at(ref); !got.Equal(slabKey(i, n)) {
			t.Fatalf("key %d: got %v", i, got)
		}
	}
	if blk := refs[len(refs)-1] >> keySlabBlockLog2; blk != 2 {
		t.Fatalf("last key in block %d, want 2", blk)
	}
	for _, b := range s.blocks[:2] {
		if cap(b) != keySlabBlock {
			t.Fatalf("full block has capacity %d, want %d", cap(b), keySlabBlock)
		}
	}
}

// TestKeySlabFullPanics presets a slab whose every addressable block is
// taken (sharing one full block, so the test allocates 1 MiB, not 16 GiB):
// the next append must panic clearly rather than wrap the reference.
func TestKeySlabFullPanics(t *testing.T) {
	full := make([]int32, keySlabBlock)
	s := keySlab{blocks: make([][]int32, keySlabMaxBlocks)}
	for i := range s.blocks {
		s.blocks[i] = full
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "key slab full") {
			t.Fatalf("append past 2^32 words: recovered %v, want a key-slab-full panic", r)
		}
	}()
	s.append(gcl.State{1, 2, 3})
}

// warmTable returns a sequential store's table holding keys and their
// fingerprints.
func warmTable(keys []gcl.State, fps []uint64) *fpTable {
	st := newSeqStore(nil, Plan{})
	for i, k := range keys {
		st.t.insert(fps[i], k, int32(i))
	}
	return &st.t
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
	tab := warmTable(keys[:10000], fps[:10000])
	allocs := testing.AllocsPerRun(20, func() {
		for i := range keys {
			if _, ok := tab.lookup(fps[i], keys[i]); ok != (i < 10000) {
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
// engine and the store, holding each state once, for both engines. Without
// symmetry the entry is the concrete vector; under symmetry it is the
// canonical key plus a witness-and-cursor tail, from which the engine
// decodes the concrete state.
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
			if e.byRef == nil || e.slab != ss.keys() {
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
			if want := e.numStates() * (p.StateLen() + keySlabHeader + tail); words > want+keySlabBlock {
				t.Fatalf("workers=%d symmetry=%v: slab holds %d words for %d states of %d words — vectors stored twice?",
					workers, sym, words, e.numStates(), p.StateLen())
			}
			for i := 0; i < e.numStates(); i++ {
				key := e.slab.at(e.refs.at(int32(i)))
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
// slab holding, per state, its canonical key, the header and the tail —
// nothing else — at workers 0 and 2.
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
		if want := e.numStates() * (p.StateLen() + keySlabHeader + p.TailLen()); words < want || words > want+keySlabBlock {
			t.Errorf("workers=%d: slab holds %d words, want %d plus at most one block", workers, words, want)
		}
	}
}

// TestFpTableAdversarialFingerprints grows a table from fpTableMinSize slots
// through nine doublings under chosen fingerprints. Keys come in groups of
// four that share one tag and so one home slot: two of them share the whole
// 64-bit fingerprint, the other two differ from it in the low 32 bits. The
// slab is preset so that its earlier blocks are taken (all aliasing one
// block the test never reads), and the last key is the empty vector at the
// top reference, 2^32-2, under fingerprint 0, the slot word closest to the
// empty one. Every key must come back with its value, absent keys must
// miss, and replaced values must show.
func TestFpTableAdversarialFingerprints(t *testing.T) {
	const realBlocks = 4
	full := make([]int32, keySlabBlock)
	st := newSeqStore(nil, Plan{})
	st.slab.blocks = make([][]int32, keySlabMaxBlocks-realBlocks)
	for i := range st.slab.blocks {
		st.slab.blocks[i] = full
	}
	tab := &st.t
	fp := func(i int) uint64 {
		base := gcl.State{int32(i / 4)}.Fingerprint()
		if i%4 < 2 {
			return base
		}
		return base&^0xffffffff | uint64(uint32(i))
	}

	// Length-3 keys (five slab words each) fill the real blocks until the
	// last has nine words left: one length-5 key takes seven, the empty
	// key the final two.
	var keys []gcl.State
	var fps []uint64
	var topRef uint32
	for {
		blk := st.slab.blocks[len(st.slab.blocks)-1]
		room := keySlabBlock - len(blk)
		i := len(keys)
		k, f := slabKey(i, 3), fp(i)
		if len(st.slab.blocks) == keySlabMaxBlocks && room <= 9 {
			if room == 9 {
				k, f = slabKey(i, 5), 0
			} else {
				k, f = gcl.State{}, 0
			}
		}
		keys, fps = append(keys, k), append(fps, f)
		tab.insert(f, k, int32(i))
		if len(k) == 0 {
			topRef = uint32(len(st.slab.blocks)-1)<<keySlabBlockLog2 | uint32(keySlabBlock-room)
			break
		}
	}
	if last := st.slab.blocks[keySlabMaxBlocks-1]; len(last) != keySlabBlock || topRef != 1<<32-keySlabHeader {
		t.Fatalf("empty key stored at reference %#x, want %#x", topRef, uint32(1<<32-keySlabHeader))
	}
	if e := newFpEntry(0, topRef); e == 0 || e.ref() != topRef {
		t.Fatalf("top reference encodes as %#x", uint64(e))
	}
	// Reference 0 under fingerprint 0 is the other slot word next to empty.
	low := fpTable{slab: &keySlab{}}
	low.insert(0, gcl.State{}, 7)
	if v, ok := low.lookup(0, gcl.State{}); !ok || v != 7 {
		t.Fatalf("empty key at reference 0 under fingerprint 0: got %d, %v", v, ok)
	}
	if got := len(tab.ents); got < fpTableMinSize<<8 {
		t.Fatalf("table ended with %d slots for %d keys, want at least 8 doublings from %d",
			got, len(keys), fpTableMinSize)
	}
	if tab.n != len(keys) {
		t.Fatalf("table counts %d entries, inserted %d", tab.n, len(keys))
	}

	check := func(want func(i int) int32) {
		t.Helper()
		for i, k := range keys {
			if v, ok := tab.lookup(fps[i], k); !ok || v != want(i) {
				t.Fatalf("key %d (len %d, fp %#x): got %d, %v; want %d", i, len(k), fps[i], v, ok, want(i))
			}
			// Same fingerprint, different key: length 4 and a length-3
			// vector past every inserted one.
			for _, absent := range []gcl.State{slabKey(i, 4), slabKey(len(keys)+i, 3)} {
				if v, ok := tab.lookup(fps[i], absent); ok {
					t.Fatalf("absent key %v under fp %#x found with value %d", absent, fps[i], v)
				}
			}
		}
	}
	check(func(i int) int32 { return int32(i) })
	replaced := func(i int) int32 {
		if i%7 == 0 || i == len(keys)-1 {
			return -int32(i) - 1
		}
		return int32(i)
	}
	for i, k := range keys {
		if replaced(i) != int32(i) {
			tab.insert(fps[i], k, replaced(i))
		}
	}
	if tab.n != len(keys) {
		t.Fatalf("replacing values changed the entry count to %d", tab.n)
	}
	check(replaced)
}

// TestExactTableFootprint pins the growth policy and the per-state cost of
// the default exact tier: exploring bakerypp N=3 M=4 (87,724 states) ends
// in a 2^17-slot table, the first power of two above 87,724/0.7, and in one
// slab holding each state vector once with its header.
func TestExactTableFootprint(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 4})
	for _, workers := range []int{0, 2} {
		g, err := BuildGraph(p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		e := g.expl
		if n := e.numStates(); n != 87724 {
			t.Fatalf("workers=%d: %d states, want 87724", workers, n)
		}
		st := e.store.(*seqStore)
		if got := len(st.t.ents); got != 1<<17 {
			t.Errorf("workers=%d: table has %d slots, want %d", workers, got, 1<<17)
		}
		words := 0
		for _, b := range st.slab.blocks {
			words += len(b)
		}
		if want := e.numStates() * (p.StateLen() + keySlabHeader); words < want || words > want+keySlabBlock {
			t.Errorf("workers=%d: slab holds %d words, want %d plus at most one block", workers, words, want)
		}
	}
}
