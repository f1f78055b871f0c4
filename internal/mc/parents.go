package mc

import (
	"fmt"
	"math/bits"
)

// parentColumn is the engine's parent column: an append-only sequence of
// nondecreasing int32 values, each at least -1, in at most two and a half
// bits per entry when each value is below its index. The merge numbers states in head order, so the parents it pushes
// never decrease, and the initial state's parent is -1.
//
// Entry i is stored as its gap from entry i-1 (from -1 for entry 0),
// written in unary: gap zero bits, then a one bit, into a bit stream of
// uint64 words, low bit first. Entry i's one bit is the stream's i-th, and
// the zeros before it sum its gaps, so it sits at bit value(i)+1+i: a
// position gives the value back. Since value(i)+1 is at most i+1, the
// stream holds at most two bits per entry. Every parentSample-th entry's
// position is kept as a sample, half a bit per entry (a position is below
// 2^32: value and index are both below 2^31), so at(i) starts from the
// sample at or before i and passes at most parentSample-1 more one bits,
// plus the zero words between them. Both the full stream words and the
// samples sit in paged columns, so nothing is copied as the column grows.
//
// Not goroutine-safe: only the merge pushes and reads.
type parentColumn struct {
	// words holds the full stream words; cur is the one being filled,
	// word words.len() of the stream.
	words column[uint64]
	cur   uint64
	// samples[k] is the bit position of entry k*parentSample.
	samples column[uint32]
	// next is the bit position after the last one written; top is the
	// last value pushed plus one (0 before the first).
	next uint64
	top  int64
	n    int32
}

// parentSample is the sampling stride: every entry whose index is a
// multiple of it has a sample.
const parentSample = 64

// push appends v and returns its index. It panics when v is less than the
// last value pushed, or than -1 for the first.
func (c *parentColumn) push(v int32) int32 {
	if int64(v)+1 < c.top {
		panic(fmt.Sprintf("mc: parent column entry %d is %d, below the previous %d", c.n, v, c.top-1))
	}
	pos := c.next + uint64(int64(v)+1-c.top)
	// Close the word being filled, and the zero words a long gap skips.
	for w := pos >> 6; uint64(c.words.len()) < w; c.cur = 0 {
		c.words.push(c.cur)
	}
	c.cur |= 1 << (pos & 63)
	if c.n%parentSample == 0 {
		c.samples.push(uint32(pos))
	}
	c.next, c.top = pos+1, int64(v)+1
	c.n++
	return c.n - 1
}

// word returns stream word w, which must have been started.
func (c *parentColumn) word(w uint64) uint64 {
	if w == uint64(c.words.len()) {
		return c.cur
	}
	return c.words.at(int32(w))
}

// at returns entry i, which must have been pushed: the position of the
// stream's i-th one bit, less i+1.
func (c *parentColumn) at(i int32) int32 {
	pos := uint64(c.samples.at(i / parentSample))
	if r := i % parentSample; r > 0 {
		// Find the r-th one bit after pos.
		w := pos >> 6
		word := c.word(w) &^ (1<<(pos&63+1) - 1)
		for n := int32(bits.OnesCount64(word)); r > n; n = int32(bits.OnesCount64(word)) {
			r -= n
			w++
			word = c.word(w)
		}
		for ; r > 1; r-- {
			word &= word - 1
		}
		pos = w<<6 + uint64(bits.TrailingZeros64(word))
	}
	return int32(pos - uint64(i) - 1)
}

// len is the number of entries pushed.
func (c *parentColumn) len() int { return int(c.n) }
