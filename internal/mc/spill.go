package mc

// The mmap-backed spill tier: an append-only arena of state vectors living
// in an unlinked temp file instead of the Go heap. The OS pages the arena
// in and out under memory pressure, the garbage collector never scans it,
// and GOMEMLIMIT does not count it — which is what lets a visited set plus
// frontier exceed RAM. Two consumers share one arena per exploration:
//
//   - the engine's state pager (explorer.appendState/stateAt): every
//     numbered state's vector is encoded into the arena and decoded on
//     demand, so e.states holds nothing;
//   - the exact spill store (spillStore below): key vectors are kept as
//     arena offsets and membership compares run directly against the
//     mapped bytes, so exactness survives without heap copies.
//
// The arena grows in fixed 64 MiB chunks that are mapped once and never
// remapped or moved, so a reader holding a decoded offset can never be
// invalidated by growth. Appends are serialized by a mutex; readers run
// lock-free against already-written entries (the engines' phase barriers —
// and the conformance tests' — provide the happens-before edge).

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"bakerypp/internal/gcl"
)

const (
	// arenaChunkLog2 sizes one mapped chunk: 64 MiB. Entries never
	// straddle chunks (the tail is padded), so a chunk bounds the largest
	// storable vector at ~16M words — far beyond any state.
	arenaChunkLog2 = 26
	arenaChunkSize = 1 << arenaChunkLog2
	arenaChunkMask = arenaChunkSize - 1
	// arenaMaxChunks caps the chunk table so its backing array never
	// reallocates (readers index it lock-free): 16384 chunks = 1 TiB.
	arenaMaxChunks = 1 << 14
)

// arena is the append-only spill file. Entry encoding: a 4-byte
// little-endian word count n followed by n little-endian 4-byte state
// words; the returned offset is global (chunk index × chunk size + offset
// within the chunk).
type arena struct {
	mu     sync.Mutex
	f      *os.File // nil on the no-mmap fallback
	chunks [][]byte
	off    int64 // next global write offset
	dir    string
}

// newArena creates the spill file in dir ("" = os.TempDir()) and unlinks
// it immediately, so the space is reclaimed however the process exits.
func newArena(dir string) (*arena, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	a := &arena{dir: dir, chunks: make([][]byte, 0, arenaMaxChunks)}
	f, err := os.CreateTemp(dir, "mc-spill-*.arena")
	if err != nil {
		return nil, fmt.Errorf("mc: spill arena: %w", err)
	}
	os.Remove(f.Name())
	a.f = f
	runtime.SetFinalizer(a, func(a *arena) { a.close() })
	return a, nil
}

// close unmaps every chunk and closes the file. Called by the finalizer;
// safe to call twice.
func (a *arena) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.chunks {
		unmapChunk(c)
	}
	a.chunks = a.chunks[:0]
	if a.f != nil {
		a.f.Close()
		a.f = nil
	}
}

// grow maps the next chunk. Caller holds a.mu.
func (a *arena) grow() error {
	if len(a.chunks) >= arenaMaxChunks {
		return fmt.Errorf("mc: spill arena exceeded %d chunks (%d GiB)", arenaMaxChunks, arenaMaxChunks>>4)
	}
	b, err := mapChunk(a.f, int64(len(a.chunks))<<arenaChunkLog2, arenaChunkSize)
	if err != nil {
		return fmt.Errorf("mc: spill arena: %w", err)
	}
	a.chunks = append(a.chunks, b)
	return nil
}

// append encodes s and returns its global offset.
func (a *arena) append(s gcl.State) (int64, error) {
	need := 4 + 4*len(s)
	if need > arenaChunkSize {
		return 0, fmt.Errorf("mc: state of %d words exceeds the spill chunk size", len(s))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if int(a.off&arenaChunkMask)+need > arenaChunkSize {
		a.off = (a.off>>arenaChunkLog2 + 1) << arenaChunkLog2 // pad to next chunk
	}
	for int(a.off>>arenaChunkLog2) >= len(a.chunks) {
		if err := a.grow(); err != nil {
			return 0, err
		}
	}
	off := a.off
	b := a.chunks[off>>arenaChunkLog2][off&arenaChunkMask:]
	putle32(b, uint32(len(s)))
	for i, v := range s {
		putle32(b[4+4*i:], uint32(v))
	}
	a.off += int64(need)
	return off, nil
}

// state decodes a fresh copy of the entry at off.
func (a *arena) state(off int64) gcl.State {
	b := a.chunks[off>>arenaChunkLog2][off&arenaChunkMask:]
	n := int(le32(b))
	s := make(gcl.State, n)
	for i := range s {
		s[i] = int32(le32(b[4+4*i:]))
	}
	return s
}

// equalAt compares the entry at off with key, allocation-free.
func (a *arena) equalAt(off int64, key gcl.State) bool {
	b := a.chunks[off>>arenaChunkLog2][off&arenaChunkMask:]
	if int(le32(b)) != len(key) {
		return false
	}
	for i, v := range key {
		if int32(le32(b[4+4*i:])) != v {
			return false
		}
	}
	return true
}

// bytes reports the arena's reserved size on disk.
func (a *arena) bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(len(a.chunks)) << arenaChunkLog2
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putle32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// skv is one spill-store entry: the key's arena offset and its value.
type skv struct {
	off int64
	val int32
}

// spillShard is one stripe of the spill store's fingerprint index.
type spillShard struct {
	mu sync.RWMutex
	m  map[uint64][]skv
}

// spillStore is the exact store with its key vectors in the arena: the
// in-heap residue is one (offset, value) pair per state plus the map
// buckets. Membership stays fingerprint+Equal exact — comparisons run
// against the mapped bytes — so every analysis that needs exactness can
// use it. Concurrent-safe (striped RWMutexes; arena appends serialized).
type spillStore struct {
	p       *gcl.Prog
	plan    Plan
	ar      *arena
	entries atomic.Int64
	shards  [lockStripes]spillShard
}

// newSpillStore wraps arena ar (creating a private one when nil — the
// monitor/memo searches pass nil; the engines share their pager arena).
func newSpillStore(p *gcl.Prog, plan Plan, ar *arena) (*spillStore, error) {
	if ar == nil {
		var err error
		if ar, err = newArena(plan.Store.SpillDir); err != nil {
			return nil, err
		}
	}
	st := &spillStore{p: p, plan: plan, ar: ar}
	for i := range st.shards {
		st.shards[i].m = map[uint64][]skv{}
	}
	return st, nil
}

func (st *spillStore) Prepare(s gcl.State, extra ...int32) (uint64, gcl.State) {
	return prepare(st.p, st.plan, s, extra)
}

func (st *spillStore) Lookup(fp uint64, key gcl.State) (int32, bool) {
	sh := &st.shards[fp&(lockStripes-1)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, e := range sh.m[fp] {
		if st.ar.equalAt(e.off, key) {
			return e.val, true
		}
	}
	return -1, false
}

func (st *spillStore) Insert(fp uint64, key gcl.State, val int32) {
	sh := &st.shards[fp&(lockStripes-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bucket := sh.m[fp]
	for i := range bucket {
		if st.ar.equalAt(bucket[i].off, key) {
			bucket[i].val = val
			return
		}
	}
	off, err := st.ar.append(key)
	if err != nil {
		panic(err) // disk exhaustion mid-exploration: nothing sound to do
	}
	sh.m[fp] = append(bucket, skv{off: off, val: val})
	st.entries.Add(1)
}

func (st *spillStore) Report() StoreReport {
	return StoreReport{
		Mode:       "exact,spill",
		Entries:    st.entries.Load(),
		Confidence: 1,
		SpillBytes: st.ar.bytes(),
		Traceable:  true,
	}
}
