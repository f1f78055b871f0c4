package mc

// The mmap-backed spill tier: the blocks of a keySlab (keyslab.go) mapped
// from an unlinked temp file instead of allocated on the Go heap. The OS
// pages the blocks in and out under memory pressure, the garbage collector
// never scans them, and GOMEMLIMIT does not count them — which is what lets
// a visited set plus frontier exceed RAM. The slab calls the arena only
// when it opens a block or grows its first one, never per entry, so a
// spilled slab packs, probes and decodes exactly as an in-heap one.
//
// The arena maps the file in fixed 64 MiB chunks and carves blocks from
// the newest one; a chunk is never remapped or moved, so a block stays
// valid for the arena's life. Nothing handed out of the explorer may alias
// a block: readers decode entries into memory of their own (packedKey
// decode), so the mapping can go when the arena does.

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"unsafe"
)

const (
	// arenaChunkLog2 sizes one mapped chunk: 64 MiB, sixteen times the
	// largest slab block (a raw-width block of keySlabBlock byte-width
	// entries' worth, at most 4 MiB).
	arenaChunkLog2 = 26
	arenaChunkSize = 1 << arenaChunkLog2
)

// arena is the spill file and the chunks mapped from it. Blocks never
// straddle chunks: a block that does not fit the newest chunk's rest opens
// the next chunk, and the rest is left unused.
type arena struct {
	mu     sync.Mutex
	f      *os.File // nil once closed
	chunks [][]byte
	used   int // bytes of the newest chunk handed out
}

// newArena creates the spill file in dir ("" = os.TempDir()) and unlinks
// it immediately, so the space is reclaimed however the process exits.
func newArena(dir string) (*arena, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "mc-spill-*.arena")
	if err != nil {
		return nil, fmt.Errorf("mc: spill arena: %w", err)
	}
	os.Remove(f.Name())
	a := &arena{f: f}
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
	a.chunks = nil
	if a.f != nil {
		a.f.Close()
		a.f = nil
	}
}

// block returns an empty block of capacity words, mapped from the file.
// It panics when the file cannot grow (disk exhaustion mid-exploration:
// nothing sound is left to do) or on a block larger than a chunk.
func (a *arena) block(words int) []int32 {
	if words == 0 {
		return nil
	}
	need := 4 * words
	if need > arenaChunkSize {
		panic(fmt.Sprintf("mc: slab block of %d words exceeds the spill chunk size", words))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.chunks) == 0 || a.used+need > arenaChunkSize {
		c, err := mapChunk(a.f, int64(len(a.chunks))<<arenaChunkLog2, arenaChunkSize)
		if err != nil {
			panic(fmt.Errorf("mc: spill arena: %w", err))
		}
		a.chunks, a.used = append(a.chunks, c), 0
	}
	b := a.chunks[len(a.chunks)-1][a.used : a.used+need]
	a.used += need
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), words)[:0]
}

// bytes reports the arena's reserved size on disk.
func (a *arena) bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(len(a.chunks)) << arenaChunkLog2
}
