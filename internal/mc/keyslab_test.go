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

// len is the length of the stored vector.
func (k packedKey) len() int { return int(k.head >> 1) }

// at decodes the vector stored at ref into a fresh slice.
func (s *keySlab) at(ref uint32) gcl.State {
	k := s.packed(ref, 0)
	v := make(gcl.State, k.len())
	k.decode(v)
	return v
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
// several times, through entries taken before the growth.
func TestKeySlabRoundTrip(t *testing.T) {
	var s keySlab
	var refs []uint32
	var early []packedKey
	for i := 0; i < 2000; i++ {
		refs = append(refs, s.append(slabKey(i, i%23)))
		if i < 10 {
			early = append(early, s.packed(refs[i], 0))
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
		got := make(gcl.State, k.len())
		k.decode(got)
		if !got.Equal(slabKey(i, i%23)) {
			t.Fatalf("key %d, taken before growth, decodes as %v", i, got)
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
		size := keySlabHeader + payloadWords(keyHead(slabKey(i, n)))
		if off := int(ref & (keySlabBlock - 1)); off+size > keySlabBlock {
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
// slab holding, per state, the header, its canonical key packed one byte
// per word and the tail — 8 words, nothing else — at workers 0 and 2.
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
		perState := keySlabHeader + (p.StateLen()+3)/4 + p.TailLen()
		if perState != 8 || words != e.numStates()*perState {
			t.Errorf("workers=%d: slab holds %d words, %d per state; want 8 per state, %d", workers, words, perState, 8*e.numStates())
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
// slab holding each state vector once, packed one byte per word, with its
// header — 5 words per state.
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
		perState := keySlabHeader + (p.StateLen()+3)/4
		if perState != 5 || words != e.numStates()*perState {
			t.Errorf("workers=%d: slab holds %d words, %d per state; want 5 per state, %d", workers, words, perState, 5*e.numStates())
		}
	}
}

// TestKeySlabPacking round-trips vectors of both widths through one slab:
// words at the byte boundary (255, 256), at the 16-bit boundary (65535,
// 65536), negative ones, and zero-length and mixed-length vectors. Each
// must come back word for word, take the width its words allow, and match
// itself but none of the others — including near-collisions whose bytes
// would coincide if a 256 were shifted into the next byte, such as [256,0]
// against [0,1]. Entries taken before the first block grows must still
// decode after it.
func TestKeySlabPacking(t *testing.T) {
	vecs := []gcl.State{
		{},
		{0}, {255}, {256}, {-1}, {65535}, {65536},
		{0, 1}, {256, 0}, {1, 0}, {0, 256},
		{255, 255, 255, 255}, {255, 255, 255, 256}, {-1, 255, 255, 255},
		{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5 + 256}, {1, 2, 3, 4, 5, 0}, {1, 2, 3, 4},
		{65535, 65536, -65536, 1 << 30, -1 << 31, 1<<31 - 1},
		{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9},
	}
	wantByte := func(v gcl.State) bool {
		for _, w := range v {
			if w < 0 || w > 255 {
				return false
			}
		}
		return true
	}
	var s keySlab
	var refs []uint32
	var early []packedKey
	for i, v := range vecs {
		refs = append(refs, s.append(v))
		early = append(early, s.packed(refs[i], 0))
	}
	// Grow the first block past its initial capacity.
	for i := 0; cap(s.blocks[0]) <= keySlabFirst; i++ {
		s.append(slabKey(i, 9))
	}
	for i, v := range vecs {
		k := s.packed(refs[i], 0)
		if k.len() != len(v) {
			t.Fatalf("%v: stored length %d", v, k.len())
		}
		if byteWide := k.head&1 == 0; byteWide != wantByte(v) {
			t.Errorf("%v: stored one byte per word = %v, want %v", v, byteWide, wantByte(v))
		}
		if got, want := len(k.words), payloadWords(keyHead(v)); got != want {
			t.Errorf("%v: payload of %d words, want %d", v, got, want)
		}
		for _, kk := range []packedKey{k, early[i]} {
			got := make(gcl.State, kk.len())
			kk.decode(got)
			if !got.Equal(v) {
				t.Fatalf("%v decoded as %v", v, got)
			}
		}
		for j, u := range vecs {
			if got := s.match(refs[i], keyHead(u), u); got != (i == j) {
				t.Errorf("entry %v matches %v: %v", v, u, got)
			}
		}
	}
}

// FuzzKeySlabPacked: on random vector pairs, decoding an appended vector
// returns it, and a slab match holds exactly when State.Equal does. A
// vector is read from its bytes one word per byte (mode bit 0 clear) or
// one little-endian int32 per four bytes (set), so both widths, and pairs
// that share their payload bytes but not their width, come up.
func FuzzKeySlabPacked(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0}, []byte{0, 1}, byte(1))    // [256,0] vs [0,1]
	f.Add([]byte{0, 1}, []byte{0, 1, 0, 0, 0, 0, 0, 0}, byte(2))    // [0,1] vs [256,0]
	f.Add([]byte{255, 0, 0, 0}, []byte{255}, byte(1))               // [255] both widths
	f.Add([]byte{}, []byte{}, byte(0))                              // empty vectors
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{1, 2, 3, 4, 5, 0}, byte(0)) // trailing zero
	f.Add([]byte{255, 255, 255, 255}, []byte{255, 255, 255, 255}, byte(3))
	vec := func(b []byte, wide bool) gcl.State {
		if !wide {
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
		va, vb := vec(a, mode&1 != 0), vec(b, mode&2 != 0)
		var s keySlab
		ra, rb := s.append(va), s.append(vb)
		for _, c := range []struct {
			ref uint32
			v   gcl.State
		}{{ra, va}, {rb, vb}} {
			k := s.packed(c.ref, 0)
			got := make(gcl.State, k.len())
			k.decode(got)
			if !got.Equal(c.v) {
				t.Fatalf("%v decoded as %v", c.v, got)
			}
		}
		if got, want := s.match(ra, keyHead(vb), vb), va.Equal(vb); got != want {
			t.Fatalf("entry %v matches %v: %v, Equal says %v", va, vb, got, want)
		}
		if got, want := s.match(rb, keyHead(va), va), va.Equal(vb); got != want {
			t.Fatalf("entry %v matches %v: %v, Equal says %v", vb, va, got, want)
		}
	})
}
