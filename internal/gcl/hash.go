package gcl

// State hashing for the model checker's visited sets (hash v2). The
// exploration engine keys its flat visited table on this 64-bit fingerprint
// and resolves the rare collisions by comparing full state vectors (Equal),
// so the fingerprint needs good dispersion but not injectivity.
//
// v2 replaces the original byte-at-a-time FNV-1a (four multiplies per int32
// word) with a word-wise multiply-xor chain: two consecutive int32 words
// pack into one 64-bit lane, each lane costs a single multiply by a dense
// odd constant, and a murmur-style finalizer avalanches the result so that
// the low bits used for table indexing depend on every input word. The
// chain is a bijection of the running hash per lane (xor and odd-multiply
// are both invertible), which preserves FNV's collision structure while
// cutting the per-word cost roughly 8x. Fingerprint values therefore
// differ from pre-v2 releases; nothing durable pins the old values — the
// determinism and store-conformance suites compare run against run.

const (
	// fnvOffset64 is retained from v1 as the offset basis.
	fnvOffset64 = 14695981039346656037
	// fpLanePrime is the dense odd multiplier absorbed per 64-bit lane
	// (2^64 / golden ratio, the Fibonacci-hashing constant).
	fpLanePrime = 0x9e3779b97f4a7c15
)

// fpMix is the 64-bit murmur3 finalizer: a full-avalanche bijection, so
// truncating the result for bucket indices loses dispersion nowhere.
func fpMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fpAbsorb folds the state vector into h, two int32 words per multiply,
// with a lone low-half lane for odd lengths, and finalizes.
func fpAbsorb(h uint64, s State) uint64 {
	h, _ = fpAbsorbOr(h, s)
	return h
}

// fpAbsorbOr is fpAbsorb that also returns the bitwise OR of s's words,
// which the multiply chain leaves nearly free.
func fpAbsorbOr(h uint64, s State) (uint64, int32) {
	n := len(s)
	var or int32
	i := 0
	for ; i+1 < n; i += 2 {
		a, b := s[i], s[i+1]
		or |= a | b
		h = (h ^ (uint64(uint32(a)) | uint64(uint32(b))<<32)) * fpLanePrime
	}
	if i < n {
		or |= s[i]
		h = (h ^ uint64(uint32(s[i]))) * fpLanePrime
	}
	return fpMix(h), or
}

// Fingerprint returns a 64-bit hash of the state vector. Equal states
// always hash equally; distinct states may collide, so callers that need
// exact identity must confirm a hit with a full comparison (see Equal).
func (s State) Fingerprint() uint64 {
	return fpAbsorb(fnvOffset64, s)
}

// FingerprintSeeded returns a 64-bit hash of the state vector whose offset
// basis is perturbed by seed, giving a family of independent-enough hash
// functions for the lossy visited-set modes (internal/mc's compact and
// bitstate stores): the 128-bit compact key pairs Fingerprint with a
// fixed-seed second word, and per-run seeds let validation runs re-roll the
// collision dice. The seed-spreading structure is unchanged from v1: a
// splitmix64 finalizer diffuses the seed across the offset basis so related
// seeds (0, 1, 2, …) give unrelated hash functions, and seed 0 is NOT
// Fingerprint.
func (s State) FingerprintSeeded(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return fpAbsorb(fnvOffset64^z, s)
}

// Fingerprint128 returns a 128-bit fingerprint: the plain Fingerprint as
// the low word and a fixed-seed FingerprintSeeded as the high word. The
// compact store's 128-bit mode keys on both words, pushing the birthday
// bound far below any reachable state count.
func (s State) Fingerprint128() (lo, hi uint64) {
	return s.Fingerprint(), s.FingerprintSeeded(0x243f6a8885a308d3)
}

// Equal reports whether two states are word-for-word identical.
func (s State) Equal(t State) bool {
	if len(s) != len(t) {
		return false
	}
	for i, v := range s {
		if v != t[i] {
			return false
		}
	}
	return true
}
