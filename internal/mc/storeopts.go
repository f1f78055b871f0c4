package mc

// Store-mode configuration and reporting for the beyond-RAM visited-set
// tiers (see store.go for the implementations and docs/model-checking.md,
// "State stores and memory", for the soundness discussion). The default —
// StoreExact, no spill — is the historical behaviour: every key vector is
// retained in heap and membership is fingerprint+Equal exact. The other
// modes trade exactness or heap residency for reach:
//
//   - StoreCompact keeps only a 64- or 128-bit fingerprint per state (TLC's
//     trust-the-fingerprint mode, SPIN's hash compaction). A fingerprint
//     collision makes a fresh state look visited, silently omitting its
//     subtree, so verdicts are probabilistic; the expected omission count
//     (birthday bound) is computed from the final entry count and reported
//     in StoreReport/the cmd banner.
//   - StoreBitstate is SPIN's supertrace: k bits per state in a fixed bit
//     array. Far smaller again, far higher omission risk — a frontier-probing
//     mode whose verdict reports coverage confidence, never exhaustiveness.
//   - Spill moves state/key vectors out of the Go heap into an unlinked
//     mmap-backed arena file, so the OS pages them instead of the GC and
//     GOMEMLIMIT stops counting them. With StoreExact everything stays
//     exact and traceable beyond RAM; with StoreCompact the arena retains
//     the concrete vectors the compact store dropped, restoring
//     counterexample traces.
//
// Mode selection rides on Options.Store; planFor refuses lossy modes for
// analyses whose soundness needs an exact visited set (graph/cycle
// analyses, FCFS, refinement — see analysis.go).

import (
	"fmt"
	"math"
	"strings"
)

// StoreMode selects the visited-set representation.
type StoreMode uint8

const (
	// StoreExact resolves fingerprint collisions by full key comparison;
	// membership answers are always right. The default.
	StoreExact StoreMode = iota
	// StoreCompact keeps fingerprints only (hash compaction); a collision
	// omits a state. Lossy.
	StoreCompact
	// StoreBitstate keeps k hashed bits per state (Bloom/supertrace);
	// stores no values, so POR (which needs stored depths) is disabled
	// alongside. Lossy.
	StoreBitstate
)

// StoreOptions configures the visited-set tier of an exploration. The zero
// value is the exact in-heap store.
type StoreOptions struct {
	Mode StoreMode
	// Spill backs state/key vectors with an unlinked mmap arena file
	// instead of the Go heap (any mode; see package comment above).
	Spill bool
	// SpillDir is where the arena file is created ("" = os.TempDir()).
	SpillDir string
	// CompactBits is the compact-store fingerprint width: 64 or 128
	// (0 = 128, the validated default).
	CompactBits int
	// BitstateLog2 is log2 of the bitstate array's bit count
	// (0 = 27, a 16 MiB array — SPIN's -w27).
	BitstateLog2 int
	// BitstateHashes is the per-state bit count k (0 = 3).
	BitstateHashes int
	// Seed perturbs the lossy modes' hash functions; runs are deterministic
	// per seed, and the whole store report — banner, omission bound, run
	// fingerprint — is identical for any Workers count, since only the
	// merge probes the store. Exact modes ignore it.
	Seed uint64
	// Shadow, with StoreCompact, keeps a full exact store alongside and
	// counts every membership answer on which the two diverge (a collision
	// caught red-handed). Behaviour — including the divergence — follows
	// the compact answer, so a shadow run validates exactly what a plain
	// compact run would do. Validation only: it costs exact-store memory.
	Shadow bool
}

// normalized fills defaults and validates; it is what planFor stores into
// Plan.Store, so every store constructor sees resolved values.
func (so StoreOptions) normalized() (StoreOptions, error) {
	switch so.Mode {
	case StoreExact, StoreCompact, StoreBitstate:
	default:
		return so, fmt.Errorf("mc: unknown store mode %d", so.Mode)
	}
	if so.CompactBits == 0 {
		so.CompactBits = 128
	}
	if so.CompactBits != 64 && so.CompactBits != 128 {
		return so, fmt.Errorf("mc: compact store width must be 64 or 128 bits, got %d", so.CompactBits)
	}
	if so.BitstateLog2 == 0 {
		so.BitstateLog2 = 27
	}
	if so.BitstateLog2 < 10 || so.BitstateLog2 > 40 {
		return so, fmt.Errorf("mc: bitstate log2 size must lie in [10,40], got %d", so.BitstateLog2)
	}
	if so.BitstateHashes == 0 {
		so.BitstateHashes = 3
	}
	if so.BitstateHashes < 1 || so.BitstateHashes > 8 {
		return so, fmt.Errorf("mc: bitstate hash count must lie in [1,8], got %d", so.BitstateHashes)
	}
	if so.Shadow && so.Mode != StoreCompact {
		return so, fmt.Errorf("mc: shadow validation applies to the compact store only")
	}
	return so, nil
}

// Lossy reports whether the mode can wrongly report a fresh state as
// visited (probabilistic verdicts).
func (so StoreOptions) Lossy() bool {
	return so.Mode == StoreCompact || so.Mode == StoreBitstate
}

// hasValues reports whether Lookup returns real stored values; the bitstate
// store answers membership only, which rules out the POR proviso's depth
// lookups and any value-carrying use.
func (so StoreOptions) hasValues() bool { return so.Mode != StoreBitstate }

// String renders the canonical spec, parseable by ParseStoreSpec.
func (so StoreOptions) String() string {
	var b strings.Builder
	switch so.Mode {
	case StoreCompact:
		b.WriteString("compact")
		if so.CompactBits == 64 {
			b.WriteString("64")
		}
	case StoreBitstate:
		b.WriteString("bitstate")
	default:
		b.WriteString("exact")
	}
	if so.Spill {
		b.WriteString(",spill")
	}
	if so.Shadow {
		b.WriteString(",shadow")
	}
	return b.String()
}

// ParseStoreSpec parses a -store flag value: a comma-separated list of
// "exact", "compact", "compact64", "compact128", "bitstate", plus the
// modifiers "spill" and "shadow". Examples: "compact", "exact,spill",
// "compact,spill", "compact64,shadow".
func ParseStoreSpec(spec string) (StoreOptions, error) {
	var so StoreOptions
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(tok) {
		case "", "exact":
		case "compact", "compact128":
			so.Mode, so.CompactBits = StoreCompact, 128
		case "compact64":
			so.Mode, so.CompactBits = StoreCompact, 64
		case "bitstate":
			so.Mode = StoreBitstate
		case "spill":
			so.Spill = true
		case "shadow":
			so.Shadow = true
		default:
			return so, fmt.Errorf("mc: unknown store spec token %q (want exact|compact[64|128]|bitstate, modifiers spill, shadow)", tok)
		}
	}
	return so.normalized()
}

// StoreReport is the verdict-side accounting of the store tier a run used:
// what mode ran, how much it held, and — for lossy modes — how likely it is
// that the exploration silently omitted states. Engines attach it to
// Result.Store; the cmds render it as the probabilistic-verdict banner.
type StoreReport struct {
	// Mode is the resolved spec, e.g. "exact", "compact", "bitstate",
	// "compact,spill".
	Mode string `json:"mode"`
	// Lossy marks probabilistic verdicts (compact/bitstate).
	Lossy bool   `json:"lossy"`
	Seed  uint64 `json:"seed,omitempty"`
	// Entries is the number of distinct keys the store believes it holds.
	Entries int64 `json:"entries"`
	// ExpectedOmissions bounds the expected number of fresh states the run
	// wrongly treated as visited: the birthday bound k(k-1)/2^(w+1) for a
	// w-bit compact store, probes·fill^k for bitstate (final fill ratio, an
	// upper bound since fill only grows). 0 for exact modes.
	ExpectedOmissions float64 `json:"expected_omissions"`
	// Confidence = exp(-ExpectedOmissions), a lower bound on the
	// probability that no state was omitted (Poisson tail). 1 for exact.
	Confidence float64 `json:"confidence"`
	// ShadowDivergences counts membership answers on which the compact
	// store diverged from its exact shadow (Shadow runs only).
	ShadowDivergences int64 `json:"shadow_divergences,omitempty"`
	// SpillBytes is the arena footprint on disk (spill runs only).
	SpillBytes int64 `json:"spill_bytes,omitempty"`
	// BitsSet/Bits/Hashes describe the bitstate array's final fill.
	BitsSet int64 `json:"bits_set,omitempty"`
	Bits    int64 `json:"bits,omitempty"`
	Hashes  int   `json:"hashes,omitempty"`
	// Traceable reports whether counterexample traces were reconstructible
	// under this mode (false for compact/bitstate without spill, which free
	// expanded state vectors — the memory win — and with them the trace).
	Traceable bool `json:"traceable"`
}

// Banner renders the probabilistic-verdict notice lossy runs must print,
// or "" for exact modes.
func (sr *StoreReport) Banner() string {
	if sr == nil || !sr.Lossy {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "NOTE: probabilistic verdict — %s store (seed %d): %d entries, expected omitted states <= %.3g, confidence P(none omitted) >= %.9f",
		sr.Mode, sr.Seed, sr.Entries, sr.ExpectedOmissions, sr.Confidence)
	if sr.Bits > 0 {
		fmt.Fprintf(&b, "; bitstate fill %d/%d bits (%.4f%%)", sr.BitsSet, sr.Bits, 100*float64(sr.BitsSet)/float64(sr.Bits))
	}
	if sr.ShadowDivergences > 0 {
		fmt.Fprintf(&b, "; shadow caught %d divergences", sr.ShadowDivergences)
	}
	if !sr.Traceable {
		b.WriteString("; traces suppressed (add ,spill or use -store exact to recover them)")
	}
	return b.String()
}

// StoreReporter is the optional interface store implementations expose so
// engines can fill Result.Store.
type StoreReporter interface {
	Report() StoreReport
}

// confidenceFrom converts an expected-omission bound into the Poisson
// no-omission probability, clamped to [0,1].
func confidenceFrom(expected float64) float64 {
	c := math.Exp(-expected)
	if c > 1 {
		return 1
	}
	return c
}
