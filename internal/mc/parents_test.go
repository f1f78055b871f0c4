package mc

import (
	"math/rand"
	"strings"
	"testing"
)

// checkParentColumn pushes want into a fresh parent column and checks that
// every entry reads back, that the full stream words hold no more bits
// than one per entry plus the last value + 1 (at most two per entry when
// every value is below its index, as a parent is), and that at allocates
// nothing.
func checkParentColumn(t *testing.T, name string, want []int32) {
	t.Helper()
	var c parentColumn
	for i, v := range want {
		if got := c.push(v); got != int32(i) {
			t.Fatalf("%s: push %d returned index %d", name, i, got)
		}
	}
	if c.len() != len(want) {
		t.Fatalf("%s: len %d, want %d", name, c.len(), len(want))
	}
	for i, v := range want {
		if got := c.at(int32(i)); got != v {
			t.Fatalf("%s: at(%d) = %d, want %d", name, i, got, v)
		}
	}
	if len(want) > 0 {
		last := int32(len(want) - 1)
		if words, bits := c.words.len(), len(want)+int(want[last])+1; words*64 > bits {
			t.Fatalf("%s: %d entries up to %d take %d full stream words, over %d bits", name, len(want), want[last], words, bits)
		}
		if allocs := testing.AllocsPerRun(20, func() { c.at(last) }); allocs != 0 {
			t.Fatalf("%s: at allocates %.1f times per call", name, allocs)
		}
	}
}

// TestParentColumnMatchesSlice compares the succinct parent column with a
// plain []int32 on random nondecreasing sequences that start at -1 (the
// initial state's parent), with zero gaps, short gaps, and the long runs
// of 300 and 10^5 that heads with no fresh successor leave, at lengths on
// and around the 64-entry sample stride.
func TestParentColumnMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		n := rng.Intn(700)
		if round%4 == 0 {
			n = parentSample*(1+rng.Intn(8)) + rng.Intn(3) - 1
		}
		seq := make([]int32, n)
		v := int32(-1)
		for i := range seq {
			if i > 0 || rng.Intn(4) > 0 {
				switch r := rng.Intn(100); {
				case r < 40:
				case r < 90:
					v += int32(rng.Intn(4))
				case r < 97:
					v += 300
				default:
					v += 100000
				}
			}
			seq[i] = v
		}
		checkParentColumn(t, "random", seq)
	}
}

// TestParentColumnBoundaries places entries' one bits at and across the
// stream's word boundaries and entries at and around the sample stride:
// a run of -1s puts entry i at bit i; a first value of 62 or 63 puts the
// first one bit on the last bit of word 0 or the first of word 1; gaps of
// exactly 64 and 128 skip whole zero words; and a gap of 10^5 between
// two sample boundaries makes at scan over about 1,560 zero words.
func TestParentColumnBoundaries(t *testing.T) {
	repeat := func(v int32, n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	steps := func(first int32, gap int32, n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = first + int32(i)*gap
		}
		return s
	}
	cases := map[string][]int32{
		"empty":           nil,
		"one":             {-1},
		"all -1":          repeat(-1, 3*parentSample+1),
		"first at bit 63": repeat(62, 130),
		"first at bit 64": repeat(63, 130),
		"gaps of 64":      steps(-1, 64, 2*parentSample+2),
		"gaps of 128":     steps(-1, 128, 2*parentSample+2),
		"gaps of 1":       steps(-1, 1, 5*parentSample),
		"long run mid-sample": append(append(steps(-1, 1, parentSample+10), repeat(100000, 60)...),
			repeat(100001, parentSample)...),
		"long run at a sample": append(append(steps(-1, 0, parentSample-1), 100000), repeat(100300, parentSample+1)...),
	}
	for name, seq := range cases {
		checkParentColumn(t, name, seq)
	}
}

// TestParentColumnRejectsDecrease: a value below the previous one, or a
// first value below -1, panics naming it.
func TestParentColumnRejectsDecrease(t *testing.T) {
	for _, seq := range [][]int32{{-2}, {-1, 5, 4}, {3, 3, 3, 2}} {
		func() {
			var c parentColumn
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "below the previous") {
					t.Fatalf("pushing %v: recovered %q, want a decreasing-value panic", seq, msg)
				}
			}()
			for _, v := range seq {
				c.push(v)
			}
		}()
	}
}
