package mc

import "testing"

// TestColumnPages pushes across several page boundaries and checks every
// index, every value, and that page 0 never moves: a paged column copies
// nothing as it grows.
func TestColumnPages(t *testing.T) {
	var c column[int64]
	if c.len() != 0 {
		t.Fatalf("empty column has len %d", c.len())
	}
	const n = 3*columnPage + 5
	var page0 *[columnPage]int64
	for i := 0; i < n; i++ {
		if got := c.push(int64(i) * 7); got != int32(i) {
			t.Fatalf("push %d returned index %d", i, got)
		}
		if i == 0 {
			page0 = c.pages[0]
		}
		if c.pages[0] != page0 {
			t.Fatalf("page 0 moved at push %d", i)
		}
	}
	if c.len() != n || len(c.pages) != 4 {
		t.Fatalf("len %d over %d pages, want %d over 4", c.len(), len(c.pages), n)
	}
	for i := int32(0); i < n; i++ {
		if got := c.at(i); got != int64(i)*7 {
			t.Fatalf("at(%d) = %d, want %d", i, got, int64(i)*7)
		}
	}
}
