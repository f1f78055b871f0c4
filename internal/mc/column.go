package mc

// column is an append-only per-state column of the engine (the parents):
// entries sit in fixed pages of columnPage entries, each allocated once and never copied.
// A growing column therefore costs one page allocation per columnPage
// entries instead of a growslice copy of everything stored so far, and
// never holds two copies of itself at once. Indexing masks into a fixed-size
// array, so at needs one bounds check (the page) instead of two.
//
// Not goroutine-safe: only the merge pushes and reads.
type column[T any] struct {
	pages []*[columnPage]T
	n     int32
}

const (
	// columnPageLog2 sizes a page: 4096 entries, 16 KiB of int32 — small
	// enough that the many short-lived explorers of the test and refinement
	// searches stay cheap, large enough that page lookups stay in cache.
	columnPageLog2 = 12
	columnPage     = 1 << columnPageLog2
)

// push appends v and returns its index.
func (c *column[T]) push(v T) int32 {
	i := c.n
	if int(i>>columnPageLog2) == len(c.pages) {
		c.pages = append(c.pages, new([columnPage]T))
	}
	c.pages[i>>columnPageLog2][i&(columnPage-1)] = v
	c.n++
	return i
}

// at returns entry i, which must have been pushed.
func (c *column[T]) at(i int32) T {
	return c.pages[i>>columnPageLog2][i&(columnPage-1)]
}

// len is the number of entries pushed.
func (c *column[T]) len() int { return int(c.n) }
