package mc

// Store-mode configuration and reporting for the visited-set tiers (see
// store.go for the implementations and docs/model-checking.md, "State
// stores and memory", for the soundness discussion). Every tier numbers
// the engine's states in one keySlab (keyslab.go) and differs only in
// who answers membership and where the slab's blocks live:
//
//   - StoreExact, the default, answers membership exactly: a fingerprint
//     table over the slab, every hit confirmed against the stored key.
//   - StoreBitstate is SPIN's supertrace: k bits per state in a fixed bit
//     array answer membership, so a fresh state can look visited and
//     verdicts are probabilistic; the expected omission count is computed
//     from the final fill and reported in StoreReport and the cmd banner.
//     The slab still holds every numbered state, so counterexample traces
//     are kept.
//   - Spill maps the slab's blocks from an unlinked mmap-backed arena file
//     instead of allocating them on the Go heap, so the OS pages them
//     instead of the GC and GOMEMLIMIT stops counting them.
//
// Mode selection rides on Options.Store; planFor refuses the lossy mode for
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
	// StoreBitstate keeps k hashed bits per state (Bloom/supertrace);
	// stores no values, so POR (which needs stored depths) is disabled
	// alongside. Lossy.
	StoreBitstate
)

// StoreOptions configures the visited-set tier of an exploration. The zero
// value is the exact in-heap store.
type StoreOptions struct {
	Mode StoreMode
	// Spill maps the state slab from an unlinked mmap arena file instead
	// of the Go heap (either mode; see package comment above).
	Spill bool
	// SpillDir is where the arena file is created ("" = os.TempDir()).
	SpillDir string
	// BitstateLog2 is log2 of the bitstate array's bit count
	// (0 = 27, a 16 MiB array — SPIN's -w27).
	BitstateLog2 int
	// BitstateHashes is the per-state bit count k (0 = 3).
	BitstateHashes int
	// Seed perturbs the bitstate hash functions; runs are deterministic
	// per seed, and the whole store report — banner, omission bound, run
	// fingerprint — is identical for any Workers count, since only the
	// merge probes the store. The exact mode ignores it.
	Seed uint64
}

// normalized fills defaults and validates; it is what planFor stores into
// Plan.Store, so every store constructor sees resolved values.
func (so StoreOptions) normalized() (StoreOptions, error) {
	switch so.Mode {
	case StoreExact, StoreBitstate:
	default:
		return so, fmt.Errorf("mc: unknown store mode %d", so.Mode)
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
	return so, nil
}

// Lossy reports whether the mode can wrongly report a fresh state as
// visited (probabilistic verdicts).
func (so StoreOptions) Lossy() bool { return so.Mode == StoreBitstate }

// String renders the canonical spec, parseable by ParseStoreSpec.
func (so StoreOptions) String() string {
	s := "exact"
	if so.Mode == StoreBitstate {
		s = "bitstate"
	}
	if so.Spill {
		s += ",spill"
	}
	return s
}

// ParseStoreSpec parses a -store flag value: a comma-separated list of
// "exact" or "bitstate", plus the modifier "spill". Examples: "bitstate",
// "exact,spill", "bitstate,spill".
func ParseStoreSpec(spec string) (StoreOptions, error) {
	var so StoreOptions
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(tok) {
		case "", "exact":
		case "bitstate":
			so.Mode = StoreBitstate
		case "spill":
			so.Spill = true
		default:
			return so, fmt.Errorf("mc: unknown store spec token %q (want exact|bitstate, modifier spill)", tok)
		}
	}
	return so.normalized()
}

// StoreReport is the verdict-side accounting of the store tier a run used:
// what mode ran, how much it held, and — for lossy modes — how likely it is
// that the exploration silently omitted states. Engines attach it to
// Result.Store; the cmds render it as the probabilistic-verdict banner.
type StoreReport struct {
	// Mode names the tier: "exact,spill" or "bitstate" (with or without
	// spill).
	Mode string `json:"mode"`
	// Lossy marks probabilistic verdicts (bitstate).
	Lossy bool   `json:"lossy"`
	Seed  uint64 `json:"seed,omitempty"`
	// Entries is the number of distinct keys the store believes it holds.
	Entries int64 `json:"entries"`
	// ExpectedOmissions bounds the expected number of fresh states the run
	// wrongly treated as visited: probes·fill^k at the final fill ratio,
	// an upper bound since fill only grows. 0 for exact modes.
	ExpectedOmissions float64 `json:"expected_omissions"`
	// Confidence = exp(-ExpectedOmissions), a lower bound on the
	// probability that no state was omitted (Poisson tail). 1 for exact.
	Confidence float64 `json:"confidence"`
	// SpillBytes is the arena footprint on disk (spill runs only).
	SpillBytes int64 `json:"spill_bytes,omitempty"`
	// BitsSet/Bits/Hashes describe the bitstate array's final fill.
	BitsSet int64 `json:"bits_set,omitempty"`
	Bits    int64 `json:"bits,omitempty"`
	Hashes  int   `json:"hashes,omitempty"`
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
	return b.String()
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
