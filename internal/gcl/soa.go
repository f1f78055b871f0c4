package gcl

// Structure-of-arrays batch layout for prepared visited-store probes.
//
// The exploration engines (internal/mc) probe the visited store once per
// generated successor: canonicalize (under symmetry), fingerprint, then
// look the key up. Doing that one state at a time costs a pooled scratch
// copy and a cache-cold fingerprint per successor. A KeySlab instead packs
// the prepared keys of a whole SuccBuf chunk into one contiguous []int32
// slab with stride addressing — key i occupies words[i*stride:(i+1)*stride]
// — with the fingerprints and the canonical keys' witness bytes in
// parallel arrays. Canonicalization writes its result directly into the
// slab slot (no intermediate copy), and fingerprinting becomes a tight
// second pass over adjacent words. The slab grows monotonically and is
// recycled with Reset, so a warmed-up exploration loop allocates nothing
// per chunk (pinned by TestCanonicalizeBatchAllocFree).
//
// Slices returned by Key and Witness alias the slab. Growth reallocates
// the backing arrays, so a previously returned slice may point at an old
// backing — its CONTENT stays valid (growth copies), which is all the
// engines rely on: keys and witnesses are compared and retained by value,
// never by identity.

// KeySlab is a batch of prepared store probes in structure-of-arrays form.
// The zero value is an empty slab ready for use. Not goroutine-safe; the
// engines hold one per worker.
type KeySlab struct {
	words  []int32
	fps    []uint64
	wits   []byte
	stride int
	// nwit is the witness width in bytes (the process count) of the keys
	// CanonicalizeBatch appended.
	nwit int
	n    int
}

// Reset empties the slab, retaining capacity. The stride is re-latched by
// the first append after a Reset, so one slab can serve batches of
// different key widths across chunks (not within one).
func (ks *KeySlab) Reset() { ks.n = 0; ks.words = ks.words[:0]; ks.wits = ks.wits[:0] }

// Len returns the number of keys in the slab.
func (ks *KeySlab) Len() int { return ks.n }

// Stride returns the key width in words (0 while empty).
func (ks *KeySlab) Stride() int {
	if ks.n == 0 {
		return 0
	}
	return ks.stride
}

// Key returns key i, aliasing the slab (content-stable across growth).
func (ks *KeySlab) Key(i int) State {
	off := i * ks.stride
	return State(ks.words[off : off+ks.stride])
}

// Fp returns the fingerprint of key i.
func (ks *KeySlab) Fp(i int) uint64 { return ks.fps[i] }

// Witness returns the witness of canonical key i, one byte per pid (byte q
// is the slot process q moved to), aliasing the slab like Key. Only keys
// CanonicalizeBatch appended carry one.
func (ks *KeySlab) Witness(i int) []byte {
	off := i * ks.nwit
	return ks.wits[off : off+ks.nwit : off+ks.nwit]
}

// alloc appends one uninitialised slot of the given stride and returns its
// index and the slot slice; the caller must overwrite every word.
func (ks *KeySlab) alloc(stride int) (int, State) {
	if ks.n == 0 {
		ks.stride = stride
	} else if stride != ks.stride {
		panic("gcl: KeySlab stride change within a batch (Reset first)")
	}
	i := ks.n
	ks.n++
	need := ks.n * stride
	if need > cap(ks.words) {
		grown := make([]int32, len(ks.words), max(2*cap(ks.words), need))
		copy(grown, ks.words)
		ks.words = grown
	}
	ks.words = ks.words[:need]
	if len(ks.fps) < ks.n {
		ks.fps = append(ks.fps, 0)
	} else {
		ks.fps[i] = 0
	}
	return i, State(ks.words[i*stride : need])
}

// fingerprintFrom fills fps[i] for every i >= base in one pass over the
// packed slab words.
func (ks *KeySlab) fingerprintFrom(base int) {
	for i := base; i < ks.n; i++ {
		off := i * ks.stride
		ks.fps[i] = State(ks.words[off : off+ks.stride]).Fingerprint()
	}
}

// CanonicalizeBatch canonicalizes every successor state in succs, appending
// one canonical key per successor to ks (in order) with its witness bytes
// (Witness), and fingerprinting the batch in a single pass over the packed
// slab; a pinned context (NewPinnedCanonicalizer) leaves its pinned pids in
// place. It returns the slab index of the first appended key. The per-state
// normalization, ordering and permutation scratch is the context's own,
// reused across the whole batch; nothing is allocated once the slab has
// warmed up.
func (c *Canonicalizer) CanonicalizeBatch(succs []Succ, ks *KeySlab) int {
	w := c.w
	stride, n := w.p.StateLen(), w.p.N
	base := ks.n
	ks.nwit = n
	if need := (base + len(succs)) * n; need > cap(ks.wits) {
		grown := make([]byte, len(ks.wits), max(2*cap(ks.wits), need))
		copy(grown, ks.wits)
		ks.wits = grown
	}
	for si := range succs {
		i, slot := ks.alloc(stride)
		ks.wits = ks.wits[:(i+1)*n]
		w.canonicalizeInto(slot, ks.wits[i*n:], succs[si].State, c.pinned)
	}
	ks.fingerprintFrom(base)
	return base
}

// FingerprintSuccs fingerprints every successor state into fps (reusing its
// capacity) — the batch probe for non-symmetric stores, whose key is the
// successor state itself.
func FingerprintSuccs(succs []Succ, fps []uint64) []uint64 {
	if cap(fps) < len(succs) {
		fps = make([]uint64, len(succs))
	}
	fps = fps[:len(succs)]
	for i := range succs {
		fps[i] = succs[i].State.Fingerprint()
	}
	return fps
}

// FingerprintSuccsOr is FingerprintSuccs that also writes into ors
// (reusing its capacity) the bitwise OR of each successor state's words,
// computed in the same pass: a store that keeps narrow vectors packed
// reads their width off it.
func FingerprintSuccsOr(succs []Succ, fps []uint64, ors []int32) ([]uint64, []int32) {
	if cap(fps) < len(succs) {
		fps = make([]uint64, len(succs))
	}
	if cap(ors) < len(succs) {
		ors = make([]int32, len(succs))
	}
	fps, ors = fps[:len(succs)], ors[:len(succs)]
	for i := range succs {
		fps[i], ors[i] = fpAbsorbOr(fnvOffset64, succs[i].State)
	}
	return fps, ors
}
