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
				j, tl := s.appendTail(byteKey(i, n), false, tail)
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

// TestKeySlabBlockBoundary fills past several full blocks, at both widths:
// entry i sits in block i>>shift at offset (i mod 2^shift) × stride, so
// none straddles, a full block holds 2^shift entries in at most 1 MiB, and
// indices address the right block.
func TestKeySlabBlockBoundary(t *testing.T) {
	const n = 37
	for _, wide := range []bool{false, true} {
		key := byteKey
		if wide {
			key = slabKey
		}
		var s keySlab
		var last uint32
		for i := 0; len(s.blocks) < 3; i++ {
			last = s.append(key(i, n))
		}
		if s.wide != wide || s.stride != s.pay || (wide && s.pay != n) || (!wide && s.pay != (n+3)/4) {
			t.Fatalf("wide=%v: slab wide %v, %d payload words, stride %d", wide, s.wide, s.pay, s.stride)
		}
		per := uint32(1) << s.shift
		if s.stride<<s.shift > keySlabBlock || s.stride<<(s.shift+1) <= keySlabBlock {
			t.Fatalf("wide=%v: %d entries of %d words per block, want the most a power of two fits in %d words", wide, per, s.stride, keySlabBlock)
		}
		if last != 2*per || last>>s.shift != 2 {
			t.Fatalf("wide=%v: last key at index %d in block %d, want the first of block 2", wide, last, last>>s.shift)
		}
		for i := uint32(0); i <= last; i++ {
			k := s.packed(i)
			blk := s.blocks[i>>s.shift]
			if off := int(i&(per-1)) * s.stride; &k.words[0] != &blk[off] || off+s.stride > len(blk) {
				t.Fatalf("wide=%v: key %d is not at offset %d of block %d", wide, i, off, i>>s.shift)
			}
			if got := s.at(i); !got.Equal(key(int(i), n)) {
				t.Fatalf("wide=%v: key %d: got %v", wide, i, got)
			}
		}
		for _, b := range s.blocks[:2] {
			if len(b) != cap(b) || cap(b) != s.stride<<s.shift {
				t.Fatalf("wide=%v: full block has length %d, capacity %d, want %d", wide, len(b), cap(b), s.stride<<s.shift)
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
	full[len(full)-2] = packWord(gcl.State{4, 5, 6})
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
			s.appendTail(make(gcl.State, c.n), false, c.tail)
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
// state.
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
			if e.slab.len() != e.numStates() || words != e.numStates()*((p.StateLen()+3)/4+tail) {
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
// slab holding, per state, its canonical key packed one byte per word and
// the tail — 6 words, nothing else — at workers 0 and 2.
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
		perState := (p.StateLen()+3)/4 + p.TailLen()
		if perState != 6 || words != e.numStates()*perState {
			t.Errorf("workers=%d: slab holds %d words, %d per state; want 6 per state, %d", workers, words, perState, 6*e.numStates())
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
// the default exact tier: exploring bakerypp N=3 M=4 (87,724 states) ends
// in a 2^17-slot table, the first power of two above 87,724/0.7, and in one
// slab holding each state vector once, packed one byte per word and
// nothing else — 3 words per state.
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
		perState := (p.StateLen() + 3) / 4
		if perState != 3 || words != e.numStates()*perState {
			t.Errorf("workers=%d: slab holds %d words, %d per state; want 3 per state, %d", workers, words, perState, 3*e.numStates())
		}
	}
}

// TestKeySlabPacking round-trips vectors of both widths, one slab per
// length: words at the byte boundary (255, 256), at the 16-bit boundary
// (65535, 65536), negative ones, and zero-length vectors. Each slab takes
// its byte-valued vectors first, so it widens mid-run at the first vector
// with a word outside 0..255. Every vector must come back word for word —
// through its entry after the widening, and through the entry taken when it
// was appended, which keeps the width it was written in — and match itself
// but none of the others, including near-collisions whose bytes would
// coincide if a 256 were shifted into the next byte, such as [256,0]
// against [0,1]. Entries taken before the first block grows must still
// decode after it.
func TestKeySlabPacking(t *testing.T) {
	groups := [][]gcl.State{
		{{}},
		{{0}, {255}, {256}, {-1}, {65535}, {65536}},
		{{0, 1}, {1, 0}, {256, 0}, {0, 256}},
		{{255, 255, 255, 255}, {1, 2, 3, 4}, {255, 255, 255, 256}, {-1, 255, 255, 255}},
		{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5 + 256}},
		{{1, 2, 3, 4, 5, 0}, {65535, 65536, -65536, 1 << 30, -1 << 31, 1<<31 - 1}},
		{{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}},
	}
	for _, vecs := range groups {
		var s keySlab
		var early []packedKey
		wideSoFar := false
		for i, v := range vecs {
			wideSoFar = wideSoFar || wideKey(v)
			if idx := s.append(v); int(idx) != i {
				t.Fatalf("%v appended at index %d, want %d", v, idx, i)
			}
			if s.wide != wideSoFar {
				t.Fatalf("after %v the slab is wide = %v, want %v", v, s.wide, wideSoFar)
			}
			k := s.packed(uint32(i))
			want := (len(v) + 3) / 4
			if wideSoFar {
				want = len(v)
			}
			if len(k.words) != want {
				t.Errorf("%v: payload of %d words, want %d", v, len(k.words), want)
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
					t.Fatalf("%v decoded as %v", v, got)
				}
			}
			for j, u := range vecs {
				if got := s.match(uint32(i), wideKey(u), u); got != (i == j) {
					t.Errorf("entry %v matches %v: %v", v, u, got)
				}
			}
		}
	}
}

// FuzzKeySlabPacked: on random vector pairs, decoding an appended vector
// returns it, and a slab match holds exactly when State.Equal does — while
// the slab holds bytes and after it widens. A vector is read from its
// bytes one word per byte (mode bit 0 clear) or one little-endian int32
// per four bytes (set), so both widths, and pairs that share their payload
// bytes but not their width, come up; a slab holds one key length, so the
// longer vector is cut to the shorter one's length. Every run then appends
// a wide vector, widening a byte slab mid-run, and appends the pair again
// after it: entries from before and after the widening, and the entries
// taken before it, must decode, and match must still agree with Equal.
func FuzzKeySlabPacked(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0}, []byte{0, 1}, byte(1))    // [256,0] vs [0,1]
	f.Add([]byte{0, 1}, []byte{0, 1, 0, 0, 0, 0, 0, 0}, byte(2))    // [0,1] vs [256,0]
	f.Add([]byte{255, 0, 0, 0}, []byte{255}, byte(1))               // [255] both widths
	f.Add([]byte{}, []byte{}, byte(0))                              // empty vectors
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{1, 2, 3, 4, 5, 0}, byte(0)) // byte pair, widened by the run
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
		n := min(len(va), len(vb))
		va, vb = va[:n], vb[:n]
		var s keySlab
		type entry struct {
			i uint32
			k packedKey
			v gcl.State
		}
		var ents []entry
		add := func(v gcl.State) {
			i := s.append(v)
			ents = append(ents, entry{i, s.packed(i), v})
		}
		check := func() {
			t.Helper()
			for _, e := range ents {
				for _, k := range []packedKey{e.k, s.packed(e.i)} {
					got := make(gcl.State, n)
					k.decode(got)
					if !got.Equal(e.v) {
						t.Fatalf("%v decoded as %v (slab wide %v)", e.v, got, s.wide)
					}
				}
				for _, u := range []gcl.State{va, vb} {
					if got, want := s.match(e.i, wideKey(u), u), e.v.Equal(u); got != want {
						t.Fatalf("entry %v matches %v: %v, Equal says %v (slab wide %v)", e.v, u, got, want, s.wide)
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
		w := make(gcl.State, n)
		w[n-1] = 256
		add(w)
		add(va)
		add(vb)
		if !s.wide {
			t.Fatal("a vector holding 256 left the slab one byte per word")
		}
		check()
	})
}
