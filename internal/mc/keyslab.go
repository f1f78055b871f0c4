package mc

import (
	"fmt"
	"math/bits"

	"bakerypp/internal/gcl"
)

// keySlab is append-only storage for state vectors of one length: the exact
// stores' keys and, in every tier, the engine's numbered states, where a
// state's number IS its slab index. Entry i is the vector's packed payload
// followed, optionally, by a tail of words its owner reads back (the
// symmetric engine's witness and cursor bytes, see appendTail).
//
// Every entry has one shape, fixed at the first append: keyLen key words
// and tailLen tail words (appending another shape panics, naming both).
// Width belongs to each block and is fixed when the block opens: the
// payload is four bits per word, eight to an int32, while every vector
// appended so far has its words in 0..15 — which holds for every state of
// every cell this repository benchmarks, whose pcs stay at most 11 and
// whose numbers at most M+1 — then one byte per word, four to an int32,
// for words in 0..255, and raw int32 words beyond (keyWidth). A block opens
// at the widest width appended so far; the first vector too wide for the
// open block re-encodes that block alone, once, at the new width (widen).
// So block widths never decrease with the block index, and two block
// indices, byteFrom and rawFrom, give every block's width. Entries are
// fixed-stride within a block and carry no header: every block holds
// 2^shift entries whatever its width, so entry i sits in block i>>shift at
// word offset (i mod 2^shift) × that block's stride. A probe compares
// against the packed payload (match), never unpacking the entry; whoever
// reads a vector back decodes it into a buffer of its own
// (packedKey.decode).
//
// 2^shift is the most entries that fit keySlabBlock words (1 MiB) at byte
// width, so a nibble block takes about half of that and a raw one up to
// four times it. Whoever holds indices (table slots, the engine's parent
// column) holds no Go pointers, and the collector sees one pointer per
// block instead of one per vector. A full block never moves. The table
// keeps index+1 in 32 bits, so no index exceeds 2^32-2.
//
// Only the first block starts small (about keySlabFirst words) and doubles
// up to the full block size, so the many short-lived stores of the
// refinement search cost kilobytes, not a megabyte each. A doubling copies
// the block and a re-encoding builds a new one, but neither writes the old
// one: a packedKey taken earlier keeps aliasing it, carrying the width it
// was written in, so it stays valid across growth too.
//
// Under spill the blocks are mapped from an mmap arena (spill.go) instead
// of allocated on the heap; the slab asks the arena for memory only when it
// opens a block or grows the first one, so nothing else differs.
//
// Not goroutine-safe: appends need exclusive access. The payload and tail
// of an entry are never written again in place, though, so a packedKey may
// be handed to another goroutine and decoded there while appends continue
// (the parallel pre-pass decodes its chunk's heads that way).
type keySlab struct {
	blocks [][]int32
	n      uint32
	// ar, when set, maps the blocks from the spill arena.
	ar *arena
	// shaped is set by the first append, which fixes keyLen and tailLen.
	shaped          bool
	keyLen, tailLen int
	// pays[w] is a key's payload length in words at width w. width is the
	// open block's width, the widest of any vector appended so far, and
	// stride its entry length; byteFrom and rawFrom are the first blocks
	// at byte and at raw width (noBlock while there is none), every block
	// before byteFrom being a nibble block. 2^shift entries per block.
	pays              [rawWidth + 1]int
	width             keyWidth
	stride            int
	byteFrom, rawFrom uint32
	shift             uint
}

// keyWidth is how a block stores its payload words: nibbleWidth packs
// eight words in 0..15 to an int32, byteWidth four words in 0..255, and
// rawWidth keeps each as it is. A wider width holds every vector a
// narrower one does.
type keyWidth uint8

const (
	nibbleWidth keyWidth = iota
	byteWidth
	rawWidth
)

const (
	// keySlabBlockLog2 sizes a full block at byte width: at most 2^18
	// words = 1 MiB.
	keySlabBlockLog2 = 18
	keySlabBlock     = 1 << keySlabBlockLog2
	// keySlabMaxEntries bounds the entry count: indices run to 2^32-2.
	keySlabMaxEntries = 1<<32 - 1
	// keySlabFirst is the first block's initial capacity in words, rounded
	// down to whole entries.
	keySlabFirst = 1 << 10
	// noBlock is byteFrom and rawFrom while no block has that width.
	noBlock = ^uint32(0)
)

// widthOf returns the narrowest width that holds every word of v; a
// negative word needs raw words.
func widthOf(v gcl.State) keyWidth {
	var or int32
	i := 0
	for ; i+4 <= len(v); i += 4 {
		w := v[i : i+4 : i+4]
		or |= w[0] | w[1] | w[2] | w[3]
	}
	for _, w := range v[i:] {
		or |= w
	}
	return widthOr(or)
}

// widthOr is widthOf for a vector whose words OR to or.
func widthOr(or int32) keyWidth {
	switch u := uint32(or); {
	case u <= 0xf:
		return nibbleWidth
	case u <= 0xff:
		return byteWidth
	}
	return rawWidth
}

// payLen returns the payload length in words of an n-word key at width w.
func payLen(n int, w keyWidth) int {
	switch w {
	case nibbleWidth:
		return (n + 7) >> 3
	case byteWidth:
		return (n + 3) >> 2
	}
	return n
}

// packBytes packs four words in 0..255 into one, low byte first.
func packBytes(v []int32) int32 {
	return int32(uint32(v[0]) | uint32(v[1])<<8 | uint32(v[2])<<16 | uint32(v[3])<<24)
}

// packNibbles packs eight words in 0..15 into one, low nibble first.
func packNibbles(v []int32) int32 {
	return int32(uint32(v[0]) | uint32(v[1])<<4 | uint32(v[2])<<8 | uint32(v[3])<<12 |
		uint32(v[4])<<16 | uint32(v[5])<<20 | uint32(v[6])<<24 | uint32(v[7])<<28)
}

// packPart packs fewer words than fill an int32, bits bits each, low
// first.
func packPart(v gcl.State, bits uint) int32 {
	var w uint32
	for j, x := range v {
		w |= uint32(x) << (bits * uint(j))
	}
	return int32(w)
}

// pack writes v's payload at width w into p, payLen(len(v), w) words.
func pack(p []int32, v gcl.State, w keyWidth) {
	j := 0
	switch w {
	case rawWidth:
		copy(p, v)
	case byteWidth:
		for ; j+4 <= len(v); j += 4 {
			p[j>>2] = packBytes(v[j : j+4 : j+4])
		}
		if j < len(v) {
			p[j>>2] = packPart(v[j:], 8)
		}
	default:
		for ; j+8 <= len(v); j += 8 {
			p[j>>3] = packNibbles(v[j : j+8 : j+8])
		}
		if j < len(v) {
			p[j>>3] = packPart(v[j:], 4)
		}
	}
}

// packedKey is one slab entry as stored: the payload, pay words at width,
// then the tail. The words alias the slab, which never writes them again;
// holders only read them (the capacity past the entry is the slab's).
type packedKey struct {
	words []int32
	pay   int32
	width keyWidth
}

// decode writes the stored vector into dst, which must have its length.
func (k packedKey) decode(dst gcl.State) {
	i := 0
	switch k.width {
	case rawWidth:
		copy(dst, k.words[:len(dst)])
	case byteWidth:
		for ; i+4 <= len(dst); i += 4 {
			w, d := uint32(k.words[i>>2]), dst[i:i+4:i+4]
			d[0], d[1], d[2], d[3] = int32(w&0xff), int32(w>>8&0xff), int32(w>>16&0xff), int32(w>>24)
		}
		for ; i < len(dst); i++ {
			dst[i] = int32(uint8(uint32(k.words[i>>2]) >> (8 * uint(i&3))))
		}
	default:
		for ; i+8 <= len(dst); i += 8 {
			w, d := uint32(k.words[i>>3]), dst[i:i+8:i+8]
			d[0], d[1], d[2], d[3] = int32(w&0xf), int32(w>>4&0xf), int32(w>>8&0xf), int32(w>>12&0xf)
			d[4], d[5], d[6], d[7] = int32(w>>16&0xf), int32(w>>20&0xf), int32(w>>24&0xf), int32(w>>28)
		}
		for ; i < len(dst); i++ {
			dst[i] = int32(uint32(k.words[i>>3]) >> (4 * uint(i&7)) & 0xf)
		}
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

// layout derives the entry layout of every width from the shape and opens
// the slab at nibble width. It panics on a raw entry longer than a block.
func (s *keySlab) layout() {
	for w := range s.pays {
		s.pays[w] = payLen(s.keyLen, keyWidth(w))
	}
	if s.keyLen+s.tailLen > keySlabBlock {
		panic(fmt.Sprintf("mc: key of %d words with a %d-word tail exceeds the %d-word slab block", s.keyLen, s.tailLen, keySlabBlock))
	}
	s.width, s.stride = nibbleWidth, s.pays[nibbleWidth]+s.tailLen
	s.byteFrom, s.rawFrom = noBlock, noBlock
	s.shift = uint(bits.Len(uint(keySlabBlock/max(s.pays[byteWidth]+s.tailLen, 1)))) - 1
}

// append copies v into the slab and returns its index. It panics on a
// vector of another length than the slab's keys, past 2^32-1 entries, or
// on a vector longer than a block.
func (s *keySlab) append(v gcl.State) uint32 {
	i, _ := s.appendTail(v, widthOf(v), 0)
	return i
}

// appendTail is append for a vector whose width (widthOf) the caller has
// computed, reserving tail more words after its payload, which it returns
// for the caller to fill; packed reads them back. A vector wider than the
// open block widens the slab first.
func (s *keySlab) appendTail(v gcl.State, w keyWidth, tail int) (uint32, []int32) {
	if !s.shaped {
		s.shaped, s.keyLen, s.tailLen = true, len(v), tail
		s.layout()
	}
	s.mustFit(len(v), tail)
	if s.n == keySlabMaxEntries {
		panic(fmt.Sprintf("mc: key slab full: %d entries, the most a 32-bit table slot can index", uint32(keySlabMaxEntries)))
	}
	if w > s.width {
		s.widen(w)
	}
	i := s.n
	b := int(i >> s.shift)
	if b == len(s.blocks) {
		size := s.stride << s.shift
		if b == 0 && s.stride > 0 {
			size = min(size, max(keySlabFirst/s.stride, 1)*s.stride)
		}
		s.blocks = append(s.blocks, s.block(size))
	}
	blk := s.blocks[b]
	if len(blk)+s.stride > cap(blk) {
		grown := s.block(min(2*cap(blk), s.stride<<s.shift))[:len(blk)]
		copy(grown, blk)
		blk = grown
	}
	off, pay := len(blk), s.pays[s.width]
	blk = blk[:off+s.stride]
	pack(blk[off:off+pay], v, s.width)
	s.blocks[b] = blk
	s.n++
	return i, blk[off+pay : off+s.stride : off+s.stride]
}

// block returns an empty block of capacity words: from the spill arena
// when the slab has one, from the heap otherwise.
func (s *keySlab) block(words int) []int32 {
	if s.ar != nil {
		return s.ar.block(words)
	}
	return make([]int32, 0, words)
}

// widen raises the slab's width to w, from the open block on. Full blocks
// keep their width; the open block, if it holds entries, is re-encoded at
// w into a new block, the old one left as it is for the packedKeys that
// alias it.
func (s *keySlab) widen(w keyWidth) {
	b := s.n >> s.shift
	s.byteFrom = min(s.byteFrom, b)
	if w == rawWidth {
		s.rawFrom = b
	}
	old := packedKey{pay: int32(s.pays[s.width]), width: s.width}
	oldStride := s.stride
	s.width, s.stride = w, s.pays[w]+s.tailLen
	if int(b) == len(s.blocks) {
		return
	}
	blk := s.blocks[b]
	s.blocks, s.n = s.blocks[:b], b<<s.shift
	key := make(gcl.State, s.keyLen)
	for off := 0; off < len(blk); off += oldStride {
		old.words = blk[off : off+oldStride]
		old.decode(key)
		_, tail := s.appendTail(key, w, s.tailLen)
		copy(tail, old.tail())
	}
}

// blockWidth returns the width of block b.
func (s *keySlab) blockWidth(b uint32) keyWidth {
	switch {
	case b >= s.rawFrom:
		return rawWidth
	case b >= s.byteFrom:
		return byteWidth
	}
	return nibbleWidth
}

// packed returns entry i.
func (s *keySlab) packed(i uint32) packedKey {
	b := i >> s.shift
	w := s.blockWidth(b)
	stride := s.pays[w] + s.tailLen
	off := int(i&(1<<s.shift-1)) * stride
	return packedKey{words: s.blocks[b][off : off+stride], pay: int32(s.pays[w]), width: w}
}

// match reports whether entry i holds v, a key of the slab's length; wide
// reports whether v needs raw words (widthOf(v) == rawWidth). A raw block
// compares words. A packed block holds no raw vector, and compares v
// packed at its width word by word, never unpacking the entry; a nibble
// block checks that v's words fit a nibble as it goes, which wide does
// not tell.
func (s *keySlab) match(i uint32, wide bool, v gcl.State) bool {
	k := s.packed(i)
	p := k.words
	if k.width == rawWidth {
		return gcl.State(p[:len(v)]).Equal(v)
	}
	if wide {
		return false
	}
	j := 0
	if k.width == byteWidth {
		for ; j+4 <= len(v); j += 4 {
			if p[j>>2] != packBytes(v[j:j+4:j+4]) {
				return false
			}
		}
		return j == len(v) || p[j>>2] == packPart(v[j:], 8)
	}
	for ; j+8 <= len(v); j += 8 {
		x := v[j : j+8 : j+8]
		if uint32(x[0]|x[1]|x[2]|x[3]|x[4]|x[5]|x[6]|x[7]) > 0xf || p[j>>3] != packNibbles(x) {
			return false
		}
	}
	if j == len(v) {
		return true
	}
	var or int32
	for _, x := range v[j:] {
		or |= x
	}
	return uint32(or) <= 0xf && p[j>>3] == packPart(v[j:], 4)
}
