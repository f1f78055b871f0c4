package mc

// Fuzz target for the lossy store tier's one-sided error contract. The
// bitstate store is allowed false HITS (a fresh state wrongly reported
// visited — the probabilistic-verdict risk the banner quantifies) but
// never a false MISS: a key that was inserted must always probe back as
// present, or the engines would re-number and re-expand visited states and
// the store report's omission bound would be meaningless. `go test`
// exercises the seed corpus; `go test -fuzz FuzzBitstateCoverageBound
// ./internal/mc` explores further.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"bakerypp/internal/gcl"
)

// fuzzKeys decodes the fuzz payload into a deduplicated set of key
// vectors: a stream of little-endian words chopped into states whose
// lengths also come from the payload, so the corpus controls both
// contents and shape.
func fuzzKeys(data []byte) []gcl.State {
	words := make([]int32, 0, len(data)/4+1)
	for i := 0; i+3 < len(data); i += 4 {
		words = append(words, int32(binary.LittleEndian.Uint32(data[i:])))
	}
	if len(words) == 0 {
		words = []int32{0}
	}
	seen := map[string]bool{}
	var keys []gcl.State
	for i := 0; i < len(words) && len(keys) < 128; {
		n := 1 + int(uint32(words[i])%8)
		if i+1+n > len(words) {
			n = len(words) - i - 1
		}
		if n <= 0 {
			break
		}
		key := gcl.State(words[i+1 : i+1+n])
		i += 1 + n
		k := fmt.Sprint([]int32(key))
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, key)
	}
	return keys
}

// FuzzBitstateCoverageBound pins the bitstate tier across array sizes,
// hash counts and seeds: inserted keys always probe back (no false miss),
// the fill accounting matches a popcount of the array, and the reported
// expected-omission bound is exactly probes·fill^k with its Poisson
// confidence — the numbers the verdict banner prints instead of claiming
// exhaustiveness.
func FuzzBitstateCoverageBound(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0}, uint64(0), uint8(10), uint8(3))
	f.Add([]byte{9, 0, 0, 0, 9, 1, 0, 0, 9, 2, 0, 0, 9, 3, 0, 0}, uint64(7), uint8(12), uint8(1))
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0}, uint64(0xfeed), uint8(11), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, log2 uint8, k uint8) {
		keys := fuzzKeys(data)
		if len(keys) == 0 {
			t.Skip()
		}
		so := StoreOptions{
			Mode:           StoreBitstate,
			BitstateLog2:   10 + int(log2)%7, // [10,16]: small enough to see fill
			BitstateHashes: 1 + int(k)%8,
			Seed:           seed,
		}
		so, err := so.normalized()
		if err != nil {
			t.Fatal(err)
		}
		st := newBitstateStore(so)
		// Insert the first half; the second half stays fresh so observed
		// false hits (the omission mechanism) can be counted against the
		// reported bound.
		ins := keys[:(len(keys)+1)/2]
		fresh := keys[(len(keys)+1)/2:]
		probes := 0
		for i, key := range ins {
			fp, pk := key.Fingerprint(), key
			st.Lookup(fp, pk) // engines probe before inserting
			probes++
			st.Insert(fp, pk, int32(i))
		}
		for i, key := range ins {
			fp, pk := key.Fingerprint(), key
			if _, ok := st.Lookup(fp, pk); !ok {
				t.Fatalf("false miss: key %d (%v) inserted but not found (seed %d, w %d, k %d)",
					i, key, seed, so.BitstateLog2, so.BitstateHashes)
			}
			probes++
		}
		falseHits := 0
		for _, key := range fresh {
			fp, pk := key.Fingerprint(), key
			if _, ok := st.Lookup(fp, pk); ok {
				falseHits++
			}
			probes++
		}
		rep := st.Report()
		var pop int64
		for _, w := range st.words {
			for ; w != 0; w &= w - 1 {
				pop++
			}
		}
		if rep.BitsSet != pop {
			t.Fatalf("reported %d bits set, popcount says %d", rep.BitsSet, pop)
		}
		if rep.Bits != int64(1)<<so.BitstateLog2 || rep.Hashes != so.BitstateHashes {
			t.Fatalf("report misstates geometry: %d bits, %d hashes", rep.Bits, rep.Hashes)
		}
		maxSet := int64(so.BitstateHashes) * int64(len(ins))
		if rep.BitsSet < 1 || rep.BitsSet > maxSet || rep.BitsSet > rep.Bits {
			t.Fatalf("fill %d outside [1, min(%d, %d)]", rep.BitsSet, maxSet, rep.Bits)
		}
		fill := float64(rep.BitsSet) / float64(rep.Bits)
		wantExpected := float64(probes) * math.Pow(fill, float64(so.BitstateHashes))
		if math.Abs(rep.ExpectedOmissions-wantExpected) > 1e-9*math.Max(1, wantExpected) {
			t.Fatalf("expected-omission bound %v, want probes·fill^k = %v", rep.ExpectedOmissions, wantExpected)
		}
		wantConf := math.Exp(-wantExpected)
		if math.Abs(rep.Confidence-wantConf) > 1e-9 {
			t.Fatalf("confidence %v, want exp(-expected) = %v", rep.Confidence, wantConf)
		}
		// The observed omission mechanism — fresh keys falsely reported
		// present — must sit under the per-probe bound the confidence is
		// derived from. fill^k is an expectation, so the assertion carries
		// a concentration margin far past any credible fluctuation; a
		// violation means the double-hashing probe is biased, not bad luck.
		perProbe := math.Pow(fill, float64(so.BitstateHashes))
		if limit := 16 + 4*perProbe*float64(len(fresh)); float64(falseHits) > limit {
			t.Fatalf("%d/%d fresh keys falsely hit; per-probe bound %v allows ~%v — probe bias, coverage confidence is overstated",
				falseHits, len(fresh), perProbe, perProbe*float64(len(fresh)))
		}
	})
}

// FuzzFpTableSplits drives the exact store through forced segment splits
// against a map oracle. Up to 5000 inserts, a quarter of them overwriting
// an earlier key's value, go through a seqStore under seeded fingerprints
// whose top bits are forced to one shared prefix (top bits, so the segment
// holding them splits that many times over a directory that deepens past
// it) and whose home-slot bits are forced toward the segment's end (home
// bits set, so probe runs pile up and wrap). Every Lookup before an insert
// and every key and absent key after must agree with the map, and the
// table's structure must hold (checkFpTable).
func FuzzFpTableSplits(f *testing.F) {
	f.Add(uint64(1), uint16(3000), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(4000), uint8(12), uint8(0))
	f.Add(uint64(3), uint16(3000), uint8(0), uint8(8))
	f.Add(uint64(4), uint16(2500), uint8(5), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, topBits, homeBits uint8) {
		count, top, home := int(n%5000), uint(topBits%16), uint(homeBits%(fpSegLog2+1))
		fp := func(k gcl.State) uint64 {
			h := k.FingerprintSeeded(seed)
			h = h&^(^uint64(0)<<(64-top)) | seed<<(64-top)
			return h | (1<<home-1)<<(32+fpSegLog2-home)
		}
		key := func(j int) gcl.State { return gcl.State{int32(j & 0xff), int32(j >> 8)} }
		distinct := max(count*3/4, 1)
		st := newSeqStore(StoreOptions{})
		oracle := map[int]int32{}
		for i := 0; i < count; i++ {
			j := i % distinct
			v, ok := st.Lookup(fp(key(j)), key(j))
			if want, present := oracle[j]; ok != present || ok && v != want {
				t.Fatalf("insert %d: key %d looks up as %d, %v; the oracle has %d, %v", i, j, v, ok, want, present)
			}
			st.Insert(fp(key(j)), key(j), int32(i))
			oracle[j] = int32(i)
		}
		if count > 0 {
			checkFpTable(t, &st.t, len(oracle))
		}
		for j := 0; j < distinct+100; j++ {
			v, ok := st.Lookup(fp(key(j)), key(j))
			if want, present := oracle[j]; ok != present || ok && v != want {
				t.Fatalf("key %d looks up as %d, %v; the oracle has %d, %v", j, v, ok, want, present)
			}
		}
		if segs := len(tableSegments(&st.t)); len(oracle) > fpSegLimit && segs < 2 {
			t.Fatalf("%d keys in %d segment: no split", len(oracle), segs)
		}
	})
}
