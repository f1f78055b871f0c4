package mc

import (
	"fmt"

	"bakerypp/internal/gcl"
)

// keySlab is append-only storage for state vectors: the exact in-heap
// stores' keys and, in the default exact tier, the engine's numbered
// states. Each vector follows a keySlabHeader-word header (its length,
// then the value the exact store keeps under it), optionally followed by a
// tail of words its owner reads back by length (the symmetric engine's
// witness and cursor bytes, see appendTail), and is packed into blocks
// of keySlabBlock words (1 MiB), addressed by a uint32 word reference —
// block index in the high bits, header offset in the low ones — so whoever
// holds references (table slots, the engine's state numbering) holds no Go
// pointers, and the collector sees one pointer per block instead of one
// per vector. A vector never straddles blocks and a full block never moves,
// so at() slices stay valid for the slab's lifetime. A header takes two
// words, so no reference exceeds 2^32-2.
//
// Only the first block starts small (keySlabFirst words) and doubles up to
// the full block size, so the many short-lived stores of the refinement
// search cost kilobytes, not a megabyte each. A doubling copies the block,
// but slices returned by at() keep aliasing the old, unchanged copy, so
// they stay valid across growth too.
//
// Not goroutine-safe: append, at and value writes need exclusive access. A
// slice at() returned is never written again, though, so it may be handed
// to another goroutine and read there while appends continue (the parallel
// pre-pass reads its chunk's head vectors that way).
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
	// keySlabHeader is the per-vector header: length and value words.
	keySlabHeader = 2
)

// append copies v into the slab, with value 0, and returns its reference.
// It panics past the 2^32-word address space or on a vector longer than a
// block.
func (s *keySlab) append(v gcl.State) uint32 {
	ref, _ := s.appendTail(v, 0)
	return ref
}

// appendTail is append reserving tail more words after v, which it returns
// for the caller to fill; keyTail reads them back. The header's length
// counts v alone, so the entry still compares as v.
func (s *keySlab) appendTail(v gcl.State, tail int) (uint32, []int32) {
	need := len(v) + keySlabHeader + tail
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
	blk = append(blk, int32(len(v)), 0)
	blk = append(blk, v...)
	s.blocks[last] = blk[:len(blk)+tail]
	return ref, blk[len(blk) : len(blk)+tail : len(blk)+tail]
}

// entry returns the value word and the vector stored at ref, both aliasing
// the slab: callers must not modify the vector.
func (s *keySlab) entry(ref uint32) (*int32, gcl.State) {
	blk := s.blocks[ref>>keySlabBlockLog2]
	off := ref & (keySlabBlock - 1)
	end := off + keySlabHeader + uint32(blk[off])
	return &blk[off+1], gcl.State(blk[off+keySlabHeader : end : end])
}

// at returns the vector stored at ref, aliasing the slab: callers must not
// modify it.
func (s *keySlab) at(ref uint32) gcl.State {
	_, v := s.entry(ref)
	return v
}

// keyTail returns the vector stored at ref and the tail words appended
// after it, both aliasing the slab.
func (s *keySlab) keyTail(ref uint32, tail int) (gcl.State, []int32) {
	blk := s.blocks[ref>>keySlabBlockLog2]
	off := ref & (keySlabBlock - 1)
	end := off + keySlabHeader + uint32(blk[off])
	return gcl.State(blk[off+keySlabHeader : end : end]), blk[end : end+uint32(tail) : end+uint32(tail)]
}
