package mc

import (
	"fmt"

	"bakerypp/internal/gcl"
)

// keySlab is append-only storage for state vectors: the exact in-heap
// stores' keys and, in the default exact tier, the engine's numbered
// states. Each entry is a keySlabHeader-word header — the head (the
// vector's length and width code, see keyHead), then the value the exact
// store keeps under it — followed by the vector's packed payload and,
// optionally, a tail of words its owner reads back by length (the
// symmetric engine's witness and cursor bytes, see appendTail).
//
// The payload is one byte per word, four to an int32, low byte first, when
// every word of the vector lies in 0..255 — which holds for every state of
// every cell this repository checks, since Bakery++ keeps each register at
// most M — and the raw int32 words otherwise. The width depends on the
// vector alone, so equal vectors have equal heads, and a probe compares the
// head first and then the payload against the unpacked probe key (match),
// never unpacking the entry. Whoever reads a vector back decodes it into a
// buffer of its own (packedKey.decode).
//
// Entries are packed into blocks of keySlabBlock words (1 MiB), addressed
// by a uint32 word reference — block index in the high bits, header offset
// in the low ones — so whoever holds references (table slots, the engine's
// state numbering) holds no Go pointers, and the collector sees one pointer
// per block instead of one per vector. An entry never straddles blocks and
// a full block never moves. A header takes two words, so no reference
// exceeds 2^32-2.
//
// Only the first block starts small (keySlabFirst words) and doubles up to
// the full block size, so the many short-lived stores of the refinement
// search cost kilobytes, not a megabyte each. A doubling copies the block,
// but a packedKey taken earlier keeps aliasing the old, unchanged copy, so
// it stays valid across growth too.
//
// Not goroutine-safe: appends and value writes need exclusive access. The
// head, payload and tail of an entry are never written again, though, so a
// packedKey may be handed to another goroutine and decoded there while
// appends continue (the parallel pre-pass decodes its chunk's heads that
// way).
type keySlab struct {
	blocks [][]int32
}

const (
	// keySlabBlockLog2 sizes a full block: 2^18 words = 1 MiB.
	keySlabBlockLog2 = 18
	keySlabBlock     = 1 << keySlabBlockLog2
	// keySlabMaxBlocks is the block count a uint32 reference can address:
	// 2^32 words (16 GiB).
	keySlabMaxBlocks = 1 << (32 - keySlabBlockLog2)
	// keySlabFirst is the first block's initial capacity in words.
	keySlabFirst = 1 << 10
	// keySlabHeader is the per-entry header: head and value words.
	keySlabHeader = 2
)

// keyHead returns the head of v's entry: its length shifted left by one,
// with bit 0 set when v is stored raw — some word lies outside 0..255,
// negative ones included — and clear when it is stored one byte per word.
func keyHead(v gcl.State) int32 {
	var or int32
	i := 0
	for ; i+4 <= len(v); i += 4 {
		w := v[i : i+4 : i+4]
		or |= w[0] | w[1] | w[2] | w[3]
	}
	for _, w := range v[i:] {
		or |= w
	}
	return headFor(len(v), or)
}

// headFor is the head of an n-word vector whose words OR to or.
func headFor(n int, or int32) int32 {
	h := int32(n) << 1
	if uint32(or) > 0xff {
		h |= 1
	}
	return h
}

// payloadWords is the payload size in words of an entry with head h.
func payloadWords(h int32) int {
	n := int(h >> 1)
	if h&1 != 0 {
		return n
	}
	return (n + 3) >> 2
}

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

// packedKey is one slab entry as stored: its head and the words after the
// header — the payload, then the tail. The words alias the slab, which
// never writes them again.
type packedKey struct {
	head  int32
	words []int32
}

// rawKey wraps a vector held outside the slab as a raw-width packedKey, so
// callers that decode entries read it the same way.
func rawKey(v gcl.State) packedKey { return packedKey{head: int32(len(v))<<1 | 1, words: v} }

// decode writes the stored vector into dst, which must have its length.
func (k packedKey) decode(dst gcl.State) {
	if k.head&1 != 0 {
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
func (k packedKey) tail() []int32 { return k.words[payloadWords(k.head):] }

// append copies v into the slab, with value 0, and returns its reference.
// It panics past the 2^32-word address space or on a vector longer than a
// block.
func (s *keySlab) append(v gcl.State) uint32 {
	ref, _ := s.appendTail(v, keyHead(v), 0)
	return ref
}

// appendTail is append for a vector whose head the caller has computed,
// reserving tail more words after its payload, which it returns for the
// caller to fill; packed reads them back. The head describes v alone, so
// the entry still compares as v.
func (s *keySlab) appendTail(v gcl.State, head int32, tail int) (uint32, []int32) {
	need := keySlabHeader + payloadWords(head) + tail
	if need > keySlabBlock {
		panic(fmt.Sprintf("mc: key of %d words exceeds the %d-word slab block", len(v), keySlabBlock))
	}
	last := len(s.blocks) - 1
	if last < 0 || len(s.blocks[last])+need > keySlabBlock {
		if len(s.blocks) == keySlabMaxBlocks {
			panic(fmt.Sprintf("mc: key slab full: %d blocks (2^32 words) are addressable by a uint32 reference", keySlabMaxBlocks))
		}
		size := keySlabBlock
		if last < 0 {
			size = keySlabFirst
		}
		s.blocks = append(s.blocks, make([]int32, 0, size))
		last++
	}
	blk := s.blocks[last]
	if len(blk)+need > cap(blk) {
		grown := make([]int32, len(blk), min(max(2*cap(blk), len(blk)+need), keySlabBlock))
		copy(grown, blk)
		blk = grown
	}
	ref := uint32(last)<<keySlabBlockLog2 | uint32(len(blk))
	blk = append(blk, head, 0)
	if head&1 != 0 {
		blk = append(blk, v...)
	} else {
		p := blk[len(blk) : len(blk)+payloadWords(head)]
		i := 0
		for ; i+4 <= len(v); i += 4 {
			p[i>>2] = packWord(v[i : i+4 : i+4])
		}
		if i < len(v) {
			p[i>>2] = packWord(v[i:])
		}
		blk = blk[:len(blk)+len(p)]
	}
	s.blocks[last] = blk[:len(blk)+tail]
	return ref, blk[len(blk) : len(blk)+tail : len(blk)+tail]
}

// value returns the value word of the entry at ref.
func (s *keySlab) value(ref uint32) *int32 {
	return &s.blocks[ref>>keySlabBlockLog2][ref&(keySlabBlock-1)+1]
}

// packed returns the entry at ref, whose tail is tail words long.
func (s *keySlab) packed(ref uint32, tail int) packedKey {
	blk := s.blocks[ref>>keySlabBlockLog2]
	off := ref&(keySlabBlock-1) + keySlabHeader
	h := blk[off-keySlabHeader]
	end := off + uint32(payloadWords(h)+tail)
	return packedKey{head: h, words: blk[off:end:end]}
}

// match reports whether the entry at ref holds v, whose head is head.
// Equal vectors have equal heads, so a head mismatch is a miss; on a byte
// entry v is packed word by word and compared, never unpacking the entry.
func (s *keySlab) match(ref uint32, head int32, v gcl.State) bool {
	blk := s.blocks[ref>>keySlabBlockLog2]
	off := ref & (keySlabBlock - 1)
	if blk[off] != head {
		return false
	}
	p := blk[off+keySlabHeader:]
	if head&1 != 0 {
		return gcl.State(p[:len(v)]).Equal(v)
	}
	i := 0
	for ; i+4 <= len(v); i += 4 {
		if p[i>>2] != packWord(v[i:i+4:i+4]) {
			return false
		}
	}
	return i == len(v) || p[i>>2] == packWord(v[i:])
}
