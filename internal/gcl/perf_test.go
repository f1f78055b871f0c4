package gcl

// Hot-path performance contracts: the successor generator, the fingerprint,
// and the reusable canonicalizer must not allocate in steady state (the
// model checker runs them millions of times per second), and the word-wise
// fingerprint must agree with an independently written byte-serialization
// reference on every length parity.

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// TestSuccsIntoAllocFree pins the successor hot path at zero steady-state
// allocations: once the SuccBuf's slab blocks exist, expanding a state
// allocates nothing.
func TestSuccsIntoAllocFree(t *testing.T) {
	p := symProg(4)
	states := walkStates(p, 64)
	var buf SuccBuf
	expand := func() {
		buf.Reset()
		for _, s := range states {
			p.AllSuccsInto(s, ModeUnbounded, &buf)
		}
	}
	expand() // warm the slab blocks and the succs backing array
	if avg := testing.AllocsPerRun(100, expand); avg != 0 {
		t.Errorf("AllSuccsInto allocates %.2f objects per %d-state sweep, want 0", avg, len(states))
	}
}

// TestSuccBufGrowth pins the arena's growth policy: blocks start at
// succBufFirst words and double up to succBufBlock, every block survives
// Reset, so a buffer whose cycles each need W words retains at most 2W
// words plus the first block, and a warmed cycle allocates nothing. The
// state lengths are powers of two, which fill every block to its end.
func TestSuccBufGrowth(t *testing.T) {
	for _, n := range []int{1, 8, 16} {
		for _, states := range []int{1, 64, 128, 129, 1000, 5000, 20000, 100000} {
			w := n * states
			var buf SuccBuf
			cycle := func() {
				buf.Reset()
				for range states {
					buf.Alloc(n)
				}
			}
			for range 3 {
				cycle()
			}
			words := 0
			for i, blk := range buf.blocks {
				words += len(blk)
				if want := min(succBufFirst<<i, succBufBlock); len(blk) != want {
					t.Errorf("n=%d W=%d: block %d holds %d words, want %d", n, w, i, len(blk), want)
				}
			}
			if words > 2*w+succBufFirst {
				t.Errorf("n=%d: cycles of %d words retain %d block words, want <= %d", n, w, words, 2*w+succBufFirst)
			}
			if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
				t.Errorf("n=%d W=%d: a warmed cycle allocates %.2f objects, want 0", n, w, avg)
			}
		}
	}
	// A vector wider than the next block gets a block of its own length,
	// and the block after an oversize one is capped again.
	var buf SuccBuf
	buf.Alloc(succBufFirst + 1)
	buf.Alloc(4*succBufBlock + 1)
	buf.Alloc(1)
	if l := blockLens(&buf); !slices.Equal(l, []int{succBufFirst + 1, 4*succBufBlock + 1, succBufBlock}) {
		t.Errorf("oversize vectors: blocks %d, want [%d %d %d]", l, succBufFirst+1, 4*succBufBlock+1, succBufBlock)
	}
}

func blockLens(b *SuccBuf) []int {
	var l []int
	for _, blk := range b.blocks {
		l = append(l, len(blk))
	}
	return l
}

// TestApplyIntoAllocFree pins the single-branch variant (the POR chase's
// workhorse) and the guard evaluator at zero allocations.
func TestApplyIntoAllocFree(t *testing.T) {
	p := symProg(4)
	s := p.InitState()
	var buf SuccBuf
	dst := make(State, len(s))
	step := func() {
		for pid := 0; pid < p.N; pid++ {
			if p.EnabledMask(s, pid, &buf) != 0 {
				p.ApplyInto(dst, s, pid, 0, ModeUnbounded, &buf)
			}
		}
	}
	step()
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("EnabledMask+ApplyInto allocate %.2f objects per sweep, want 0", avg)
	}
}

// TestFingerprintAllocFree pins the word-wise fingerprint at zero
// allocations.
func TestFingerprintAllocFree(t *testing.T) {
	p := symProg(4)
	states := walkStates(p, 64)
	var sink uint64
	hash := func() {
		for _, s := range states {
			sink ^= s.Fingerprint()
			sink ^= s.FingerprintSeeded(42)
		}
	}
	if avg := testing.AllocsPerRun(100, hash); avg != 0 {
		t.Errorf("Fingerprint allocates %.2f objects per %d-state sweep, want 0", avg, len(states))
	}
	_ = sink
}

// TestCanonicalizerAllocFree pins the reusable canonicalization context at
// zero steady-state allocations across representative states.
func TestCanonicalizerAllocFree(t *testing.T) {
	p := symProg(4)
	states := walkStates(p, 64)
	c := p.NewCanonicalizer()
	var sink uint64
	canon := func() {
		for _, s := range states {
			sink ^= c.Canonicalize(s).Fingerprint()
		}
	}
	canon()
	if avg := testing.AllocsPerRun(50, canon); avg != 0 {
		t.Errorf("Canonicalizer allocates %.2f objects per %d-state sweep, want 0", avg, len(states))
	}
	_ = sink
}

// TestCanonicalizeBatchAllocFree pins the structure-of-arrays batch path at
// zero steady-state allocations: once the key slab has warmed up,
// canonicalizing and fingerprinting a whole successor chunk, witness bytes
// included, allocates nothing.
func TestCanonicalizeBatchAllocFree(t *testing.T) {
	p := symProg(4)
	states := walkStates(p, 16)
	var buf SuccBuf
	for _, s := range states {
		p.AllSuccsInto(s, ModeUnbounded, &buf)
	}
	succs := buf.Succs()
	c := p.NewCanonicalizer()
	var ks KeySlab
	var fps []uint64
	var sink uint64
	batch := func() {
		ks.Reset()
		c.CanonicalizeBatch(succs, &ks)
		base := c.CanonicalizeBatch(succs, &ks)
		fps = FingerprintSuccs(succs, fps)
		sink ^= ks.Fp(base) ^ uint64(ks.Witness(base)[0]) ^ fps[0]
	}
	batch() // warm the slab and the fingerprint buffer
	if avg := testing.AllocsPerRun(50, batch); avg != 0 {
		t.Errorf("CanonicalizeBatch paths allocate %.2f objects per %d-successor chunk, want 0", avg, len(succs))
	}
	_ = sink
}

// BenchmarkCanonicalizePerState and BenchmarkCanonicalizeBatch compare the
// engines' historical one-state-at-a-time probe — canonicalize, copy the
// key out of the canonicalizer's scratch (it is overwritten by the next
// call, and the engine batches probes across a head's ample check), then
// fingerprint — against the batched structure-of-arrays pass over the same
// successor chunk, which canonicalizes directly into the retained slab slot
// and fingerprints in one pass. This is the measurement behind the engines'
// switch to CanonicalizeBatch.
func BenchmarkCanonicalizePerState(b *testing.B) {
	p := symProg(4)
	var buf SuccBuf
	for _, s := range walkStates(p, 16) {
		p.AllSuccsInto(s, ModeUnbounded, &buf)
	}
	succs := buf.Succs()
	c := p.NewCanonicalizer()
	var keys SuccBuf
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys.Reset()
		for si := range succs {
			key := keys.Alloc(p.StateLen())
			copy(key, c.Canonicalize(succs[si].State))
			sink ^= key.Fingerprint()
		}
	}
	_ = sink
}

func BenchmarkCanonicalizeBatch(b *testing.B) {
	p := symProg(4)
	var buf SuccBuf
	for _, s := range walkStates(p, 16) {
		p.AllSuccsInto(s, ModeUnbounded, &buf)
	}
	succs := buf.Succs()
	c := p.NewCanonicalizer()
	var ks KeySlab
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks.Reset()
		base := c.CanonicalizeBatch(succs, &ks)
		sink ^= ks.Fp(base)
	}
	_ = sink
}

// refFingerprint recomputes fpAbsorb through an independent route: the
// state is serialized to little-endian bytes and the lanes are re-read 8
// bytes at a time (4-byte tail for odd word counts). Any disagreement
// with the word-packing fast path — lane order, word order within a lane,
// sign extension, tail handling — shows up here.
func refFingerprint(basis uint64, s State) uint64 {
	raw := make([]byte, 4*len(s))
	for i, w := range s {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(w))
	}
	h := basis
	for len(raw) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(raw)) * fpLanePrime
		raw = raw[8:]
	}
	if len(raw) == 4 {
		h = (h ^ uint64(binary.LittleEndian.Uint32(raw))) * fpLanePrime
	}
	return fpMix(h)
}

// refSeedBasis mirrors FingerprintSeeded's splitmix64 seed premix.
func refSeedBasis(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return fnvOffset64 ^ z
}

// TestFingerprintMatchesByteReference drives the word-wise fingerprint
// against the byte-serialization reference on random vectors of every
// small length — crucially both parities, plus the empty vector — and on
// adversarial word values (negative int32s exercise the uint32 narrowing).
func TestFingerprintMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vectors := [][]int32{
		{},
		{0},
		{-1},
		{1 << 30, -(1 << 30)},
		{0, 0, 0},
	}
	for n := 0; n <= 17; n++ {
		for rep := 0; rep < 8; rep++ {
			v := make([]int32, n)
			for i := range v {
				v[i] = int32(rng.Uint32())
			}
			vectors = append(vectors, v)
		}
	}
	for _, v := range vectors {
		s := State(v)
		if got, want := s.Fingerprint(), refFingerprint(fnvOffset64, s); got != want {
			t.Fatalf("Fingerprint(%v) = %016x, reference %016x", v, got, want)
		}
		for _, seed := range []uint64{0, 1, 42, 1 << 63} {
			if got, want := s.FingerprintSeeded(seed), refFingerprint(refSeedBasis(seed), s); got != want {
				t.Fatalf("FingerprintSeeded(%v, %d) = %016x, reference %016x", v, seed, got, want)
			}
		}
	}
	// Seed 0 must be a different function from the unseeded fingerprint.
	s := State{1, 2, 3}
	if s.Fingerprint() == s.FingerprintSeeded(0) {
		t.Error("FingerprintSeeded(0) equals Fingerprint; seeds must re-roll the hash family")
	}
}

// TestFingerprintSuccsOr: the batch with word ORs gives FingerprintSuccs'
// fingerprints and, per state, the OR of its words — on real successors
// and on vectors with negative, wide and odd-length words.
func TestFingerprintSuccsOr(t *testing.T) {
	p := symProg(4)
	var buf SuccBuf
	for _, s := range walkStates(p, 32) {
		p.AllSuccsInto(s, ModeUnbounded, &buf)
	}
	succs := append([]Succ(nil), buf.Succs()...)
	for _, v := range []State{{}, {0}, {255}, {256}, {-1}, {1, 2, 3}, {255, 0, 256, 7, 9}, {-1 << 31, 1<<31 - 1}} {
		succs = append(succs, Succ{State: v})
	}
	fps := FingerprintSuccs(succs, nil)
	gotFps, ors := FingerprintSuccsOr(succs, nil, nil)
	for i, sc := range succs {
		var or int32
		for _, w := range sc.State {
			or |= w
		}
		if gotFps[i] != fps[i] || ors[i] != or {
			t.Fatalf("%v: fingerprint %016x, OR %#x; want %016x, %#x", sc.State, gotFps[i], ors[i], fps[i], or)
		}
	}
}
