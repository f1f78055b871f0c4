package mc

import (
	"fmt"
	"math/bits"

	"bakerypp/internal/gcl"
)

// keySlab is append-only storage for state vectors of one length: the exact
// in-heap stores' keys and, in the default exact tier, the engine's
// numbered states, where a state's number IS its slab index. Entry i is
// the vector's packed payload followed, optionally, by a tail of words its
// owner reads back (the symmetric engine's witness and cursor bytes, see
// appendTail).
//
// Every entry has one shape, fixed at the first append: keyLen key words
// and tailLen tail words (appending another shape panics, naming both).
// Width is the slab's too, not each entry's: the payload is one byte per
// word, four to an int32, low byte first, while every vector appended so
// far has its words in 0..255 — which holds for every state of every cell
// this repository checks, since Bakery++ keeps each register at most M.
// The first vector with a word outside that range widens every entry, once,
// to raw int32 words (widen). So entries are fixed-stride and carry no
// header: entry i sits in block i>>shift at word offset (i mod 2^shift) ×
// stride. A probe compares against the packed payload (match), never
// unpacking the entry; whoever reads a vector back decodes it into a buffer
// of its own (packedKey.decode).
//
// A block holds 2^shift entries and at most keySlabBlock words (1 MiB), so
// whoever holds indices (table slots, the engine's parent column) holds no
// Go pointers, and the collector sees one pointer per block instead of one
// per vector. A full block never moves. The table keeps index+1 in 32 bits,
// so no index exceeds 2^32-2.
//
// Only the first block starts small (about keySlabFirst words) and doubles
// up to the full block size, so the many short-lived stores of the
// refinement search cost kilobytes, not a megabyte each. A doubling copies
// the block and a widening builds new blocks, but neither writes the old
// ones: a packedKey taken earlier keeps aliasing them, carrying the width
// they were written in, so it stays valid across growth too.
//
// Not goroutine-safe: appends need exclusive access. The payload and tail
// of an entry are never written again in place, though, so a packedKey may
// be handed to another goroutine and decoded there while appends continue
// (the parallel pre-pass decodes its chunk's heads that way).
type keySlab struct {
	blocks [][]int32
	n      uint32
	// shaped is set by the first append, which fixes keyLen and tailLen.
	shaped          bool
	keyLen, tailLen int
	// wide reports raw int32 payloads; the layout below follows from it:
	// pay payload words and stride words per entry, 2^shift per block.
	wide        bool
	pay, stride int
	shift       uint
}

const (
	// keySlabBlockLog2 sizes a full block: at most 2^18 words = 1 MiB.
	keySlabBlockLog2 = 18
	keySlabBlock     = 1 << keySlabBlockLog2
	// keySlabMaxEntries bounds the entry count: indices run to 2^32-2.
	keySlabMaxEntries = 1<<32 - 1
	// keySlabFirst is the first block's initial capacity in words, rounded
	// down to whole entries.
	keySlabFirst = 1 << 10
)

// wideKey reports whether some word of v lies outside 0..255, negative
// ones included: a slab holding v stores raw words.
func wideKey(v gcl.State) bool {
	var or int32
	i := 0
	for ; i+4 <= len(v); i += 4 {
		w := v[i : i+4 : i+4]
		or |= w[0] | w[1] | w[2] | w[3]
	}
	for _, w := range v[i:] {
		or |= w
	}
	return wideOr(or)
}

// wideOr is wideKey for a vector whose words OR to or.
func wideOr(or int32) bool { return uint32(or) > 0xff }

// packWord packs up to four byte-valued words into one, low byte first.
func packWord(v gcl.State) int32 {
	if len(v) == 4 {
		return int32(uint32(v[0]) | uint32(v[1])<<8 | uint32(v[2])<<16 | uint32(v[3])<<24)
	}
	var w uint32
	for j, x := range v {
		w |= uint32(x) << (8 * uint(j))
	}
	return int32(w)
}

// packedKey is one slab entry as stored: the payload, pay words wide (raw
// when wide, one byte per word otherwise), then the tail. The words alias
// the slab, which never writes them again.
type packedKey struct {
	words []int32
	pay   int32
	wide  bool
}

// rawKey wraps a vector held outside the slab as a raw-width packedKey, so
// callers that decode entries read it the same way.
func rawKey(v gcl.State) packedKey { return packedKey{words: v, pay: int32(len(v)), wide: true} }

// decode writes the stored vector into dst, which must have its length.
func (k packedKey) decode(dst gcl.State) {
	if k.wide {
		copy(dst, k.words[:len(dst)])
		return
	}
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		w, d := uint32(k.words[i>>2]), dst[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = int32(w&0xff), int32(w>>8&0xff), int32(w>>16&0xff), int32(w>>24)
	}
	for ; i < len(dst); i++ {
		dst[i] = int32(uint8(uint32(k.words[i>>2]) >> (8 * uint(i&3))))
	}
}

// tail returns the words after the payload.
func (k packedKey) tail() []int32 { return k.words[k.pay:] }

// len is the number of entries appended.
func (s *keySlab) len() int { return int(s.n) }

// fits reports whether the slab takes keys of keyLen words with tail-word
// tails: its shape is that one, or not yet fixed.
func (s *keySlab) fits(keyLen, tail int) bool {
	return !s.shaped || keyLen == s.keyLen && tail == s.tailLen
}

// mustFit panics unless the slab takes keys of keyLen words with tail-word
// tails, naming both shapes.
func (s *keySlab) mustFit(keyLen, tail int) {
	if !s.fits(keyLen, tail) {
		panic(fmt.Sprintf("mc: key slab holds %d-word keys with %d-word tails, not %d-word keys with %d-word tails",
			s.keyLen, s.tailLen, keyLen, tail))
	}
}

// layout derives the entry layout from the shape and width. It panics on
// an entry longer than a block.
func (s *keySlab) layout() {
	s.pay = s.keyLen
	if !s.wide {
		s.pay = (s.keyLen + 3) >> 2
	}
	s.stride = s.pay + s.tailLen
	if s.stride > keySlabBlock {
		panic(fmt.Sprintf("mc: key of %d words with a %d-word tail exceeds the %d-word slab block", s.keyLen, s.tailLen, keySlabBlock))
	}
	s.shift = uint(bits.Len(uint(keySlabBlock/max(s.stride, 1)))) - 1
}

// append copies v into the slab and returns its index. It panics on a
// vector of another length than the slab's keys, past 2^32-1 entries, or
// on a vector longer than a block.
func (s *keySlab) append(v gcl.State) uint32 {
	i, _ := s.appendTail(v, wideKey(v), 0)
	return i
}

// appendTail is append for a vector whose width (wideKey) the caller has
// computed, reserving tail more words after its payload, which it returns
// for the caller to fill; packed reads them back. A wide vector in a byte
// slab widens the slab first.
func (s *keySlab) appendTail(v gcl.State, wide bool, tail int) (uint32, []int32) {
	if !s.shaped {
		s.shaped, s.keyLen, s.tailLen = true, len(v), tail
		s.layout()
	}
	s.mustFit(len(v), tail)
	if wide && !s.wide {
		s.widen()
	}
	if s.n == keySlabMaxEntries {
		panic(fmt.Sprintf("mc: key slab full: %d entries, the most a 32-bit table slot can index", uint32(keySlabMaxEntries)))
	}
	i := s.n
	b := int(i >> s.shift)
	if b == len(s.blocks) {
		size := s.stride << s.shift
		if b == 0 && s.stride > 0 {
			size = min(size, max(keySlabFirst/s.stride, 1)*s.stride)
		}
		s.blocks = append(s.blocks, make([]int32, 0, size))
	}
	blk := s.blocks[b]
	if len(blk)+s.stride > cap(blk) {
		grown := make([]int32, len(blk), min(2*cap(blk), s.stride<<s.shift))
		copy(grown, blk)
		blk = grown
	}
	off := len(blk)
	blk = blk[:off+s.stride]
	p := blk[off : off+s.pay]
	if s.wide {
		copy(p, v)
	} else {
		j := 0
		for ; j+4 <= len(v); j += 4 {
			p[j>>2] = packWord(v[j : j+4 : j+4])
		}
		if j < len(v) {
			p[j>>2] = packWord(v[j:])
		}
	}
	s.blocks[b] = blk
	s.n++
	return i, blk[off+s.pay : off+s.stride : off+s.stride]
}

// widen re-encodes every entry as raw words into new blocks, leaving the
// old ones as they are for the packedKeys that alias them.
func (s *keySlab) widen() {
	old := *s
	s.blocks, s.n, s.wide = nil, 0, true
	s.layout()
	key := make(gcl.State, s.keyLen)
	for i := uint32(0); i < old.n; i++ {
		k := old.packed(i)
		k.decode(key)
		_, tail := s.appendTail(key, true, s.tailLen)
		copy(tail, k.tail())
	}
}

// packed returns entry i.
func (s *keySlab) packed(i uint32) packedKey {
	off := int(i&(1<<s.shift-1)) * s.stride
	return packedKey{words: s.blocks[i>>s.shift][off : off+s.stride : off+s.stride], pay: int32(s.pay), wide: s.wide}
}

// match reports whether entry i holds v, a key of the slab's length whose
// width is wide. A raw slab compares words; a byte slab holds no wide
// vector, and compares a byte one packed word by word, never unpacking the
// entry.
func (s *keySlab) match(i uint32, wide bool, v gcl.State) bool {
	off := int(i&(1<<s.shift-1)) * s.stride
	p := s.blocks[i>>s.shift][off:]
	if s.wide {
		return gcl.State(p[:len(v)]).Equal(v)
	}
	if wide {
		return false
	}
	j := 0
	for ; j+4 <= len(v); j += 4 {
		if p[j>>2] != packWord(v[j:j+4:j+4]) {
			return false
		}
	}
	return j == len(v) || p[j>>2] == packWord(v[j:])
}
