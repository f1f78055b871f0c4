package mc

// The store-conformance suite: every StateStore implementation behind
// newStateStore — seq, symmetry-keyed, pinned-keyed, spill, bitstate — is
// pushed through one shared contract (insert/lookup idempotence, value
// stability, Insert copying the caller's key, concurrent lookups and, for
// the lock-free bitstate tier, concurrent inserts under -race) and, at the
// engine level, through a verdict-parity matrix against the exact store on
// every registered specification. The companion fuzz target lives in
// storefuzz_test.go, the lossy-refusal tests in storegate_test.go.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// storeVariant is one conformance row: how to build the store and which
// optional contract clauses apply to it.
type storeVariant struct {
	name string
	plan Plan
	// values: Lookup returns the inserted value (false for bitstate,
	// which answers membership only).
	values bool
	// extras: Prepare accepts extra key words (false for the full-orbit
	// symmetry store, which panics on them by contract). A store keys on
	// one length, so the contract feeds extras to a store of their own.
	extras bool
	// concurrent: Insert may race with Insert/Lookup (false for the exact
	// store and its keyings, spilled or not, which take no locks; every
	// variant takes racing Lookups).
	concurrent bool
}

// mustStore parses a -store spec into normalized StoreOptions.
func mustStore(t *testing.T, spec string) StoreOptions {
	t.Helper()
	so, err := ParseStoreSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return so
}

func storeVariants(t *testing.T) []storeVariant {
	t.Helper()
	exact := mustStore(t, "exact")
	return []storeVariant{
		{"seq", Plan{Store: exact}, true, true, false},
		{"symmetry", Plan{Symmetry: true, Store: exact}, true, false, false},
		{"pinned", Plan{Pinned: []int{0, 1}, Store: exact}, true, true, false},
		{"spill", Plan{Store: mustStore(t, "exact,spill")}, true, true, false},
		{"bitstate", Plan{Store: mustStore(t, "bitstate")}, false, true, true},
	}
}

// conformanceProg is the shared key source: big enough that reachable
// states number in the thousands, symmetric so the orbit-keyed variants
// build.
func conformanceProg() *gcl.Prog {
	return specs.BakeryPP(specs.Config{N: 3, M: 2})
}

// reachableStates collects up to limit distinct reachable states of p by
// breadth-first search — real, well-formed key material for every store
// variant (the canonicalizing stores reject arbitrary word vectors).
func reachableStates(p *gcl.Prog, limit int) []gcl.State {
	key := func(s gcl.State) string { return fmt.Sprint([]int32(s)) }
	init := p.InitState()
	out := []gcl.State{init}
	seen := map[string]bool{key(init): true}
	for i := 0; i < len(out) && len(out) < limit; i++ {
		for pid := 0; pid < p.N; pid++ {
			for _, sc := range p.Succs(out[i], pid, gcl.ModeUnbounded, nil) {
				k := key(sc.State)
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, sc.State)
				if len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// dedupeByKey filters states down to one representative per prepared
// key, under st's own keying. The symmetry-aware variants merge whole
// orbits onto one key by design, so contract clauses about per-key value
// stability must not feed them two orbit-mates and expect two entries.
func dedupeByKey(st StateStore, states []gcl.State) []gcl.State {
	seen := map[string]bool{}
	out := make([]gcl.State, 0, len(states))
	for _, s := range states {
		_, key := st.Prepare(s)
		k := fmt.Sprint([]int32(key))
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	return out
}

// TestStoreConformanceContract runs the single-threaded contract clauses
// against every variant: a fresh store misses, Insert does not keep the
// caller's key buffer, Prepare is a pure function of the state,
// insert→lookup round-trips, re-insert is idempotent, value replacement
// sticks, and on a store keyed with extras, distinct extra words open
// separate key spaces. Lossy stores must satisfy all of it too — their failure mode is
// false HITS across distinct states (covered probabilistically by the
// parity matrix and the fuzz target), never a false miss of an inserted
// key.
func TestStoreConformanceContract(t *testing.T) {
	p := conformanceProg()
	allStates := reachableStates(p, 512)
	if len(allStates) < 512 {
		t.Fatalf("key source too small: %d reachable states", len(allStates))
	}
	for _, v := range storeVariants(t) {
		t.Run(v.name, func(t *testing.T) {
			st := newStateStore(p, v.plan)
			states := dedupeByKey(st, allStates)
			// Empty store: every probe misses.
			for _, s := range states[:32] {
				fp, key := st.Prepare(s)
				if _, ok := st.Lookup(fp, key); ok {
					t.Fatalf("empty store reported a hit for %v", s)
				}
			}
			// Insert copies the key: the caller may overwrite its buffer,
			// after which the original content still hits and the new one
			// misses (checked on a fresh store, so nothing else is in it).
			{
				own := newStateStore(p, v.plan)
				fpA, keyA := own.Prepare(states[0])
				fpB, keyB := own.Prepare(states[1])
				buf := append(gcl.State(nil), keyA...)
				own.Insert(fpA, buf, 1)
				copy(buf, keyB)
				if _, ok := own.Lookup(fpA, keyA); !ok {
					t.Fatal("overwriting the caller's key after Insert lost the entry")
				}
				if _, ok := own.Lookup(fpB, keyB); ok {
					t.Fatal("overwriting the caller's key after Insert made its new content hit")
				}
			}
			// Prepare is deterministic: same state, same probe.
			fp0, key0 := st.Prepare(states[0])
			fp1, key1 := st.Prepare(states[0])
			if fp0 != fp1 || !key0.Equal(key1) {
				t.Fatal("Prepare is not a pure function of the state")
			}
			// Insert → lookup, for every state, with per-state values.
			for i, s := range states {
				fp, key := st.Prepare(s)
				st.Insert(fp, key, int32(i))
			}
			for i, s := range states {
				fp, key := st.Prepare(s)
				val, ok := st.Lookup(fp, key)
				if !ok {
					t.Fatalf("state %d missing after insert (false miss)", i)
				}
				if v.values && val != int32(i) {
					t.Fatalf("state %d: value %d, want %d (values must be stable across later inserts)", i, val, i)
				}
			}
			// Re-insert with the same value is idempotent.
			fp, key := st.Prepare(states[7])
			st.Insert(fp, key, 7)
			if val, ok := st.Lookup(fp, key); !ok || (v.values && val != 7) {
				t.Fatalf("re-insert broke the entry: (%d, %v)", val, ok)
			}
			// Insert replaces the previous value (interface contract).
			if v.values {
				st.Insert(fp, key, 9001)
				if val, _ := st.Lookup(fp, key); val != 9001 {
					t.Fatalf("replacement value not visible: got %d", val)
				}
				st.Insert(fp, key, 7) // restore
			}
			// Distinct extra key words address disjoint key spaces, on a
			// store keyed with extras throughout (a store keys on one
			// length).
			if v.extras {
				xs := newStateStore(p, v.plan)
				fpX, keyX := xs.Prepare(states[7], 42)
				fpY, keyY := xs.Prepare(states[7], 43)
				if fpX == fpY && keyX.Equal(keyY) {
					t.Fatal("probes under extra words 42 and 43 are one key")
				}
				xs.Insert(fpX, keyX, 1042)
				if _, ok := xs.Lookup(fpY, keyY); ok {
					t.Fatal("extra-word key hit before its own insert")
				}
				xs.Insert(fpY, keyY, 1043)
				if val, ok := xs.Lookup(fpX, keyX); !ok || (v.values && val != 1042) {
					t.Fatalf("entry under extra word 42 lost or disturbed: (%d, %v)", val, ok)
				}
				if val, ok := xs.Lookup(fpY, keyY); !ok || (v.values && val != 1043) {
					t.Fatalf("entry under extra word 43 lost: (%d, %v)", val, ok)
				}
			}
		})
	}
}

// TestSeqStoreOneKeyLength pins the exact in-heap store's one-length
// contract: its first key fixes the length, a key of another length is
// refused by Insert with a panic naming both lengths, and Lookup misses
// it rather than reading a neighbouring entry.
func TestSeqStoreOneKeyLength(t *testing.T) {
	p := conformanceProg()
	st := newStateStore(p, Plan{})
	fp, key := st.Prepare(p.InitState())
	st.Insert(fp, key, 1)
	fpX, keyX := st.Prepare(p.InitState(), 42)
	if _, ok := st.Lookup(fpX, keyX); ok {
		t.Fatal("lookup of a longer key hit")
	}
	if _, ok := st.Lookup(fp, key[:len(key)-1]); ok {
		t.Fatal("lookup of a shorter key hit")
	}
	defer func() {
		msg, _ := recover().(string)
		want := fmt.Sprintf("holds %d-word keys with 0-word tails, not %d-word keys", len(key), len(keyX))
		if !strings.Contains(msg, want) {
			t.Fatalf("insert of a %d-word key into a store of %d-word keys: recovered %q, want a panic naming both", len(keyX), len(key), msg)
		}
	}()
	st.Insert(fpX, keyX, 2)
}

// TestStoreConformanceOrbitKeying pins the symmetry variants' defining
// property on top of the shared contract: orbit-mates prepare to one key
// (full symmetry), while the pinned variant keeps the pinned pids
// distinct and only merges the rest.
func TestStoreConformanceOrbitKeying(t *testing.T) {
	p := conformanceProg()
	base := p.InitState()
	a := p.Clone(base)
	p.SetShared(a, "number", 1, 2) // process 1 holds ticket 2
	b := p.Clone(base)
	p.SetShared(b, "number", 2, 2) // orbit-mate: process 2 holds it

	sym := newStateStore(p, Plan{Symmetry: true, Store: StoreOptions{}})
	fpA, keyA := sym.Prepare(a)
	fpB, keyB := sym.Prepare(b)
	if fpA != fpB || !keyA.Equal(keyB) {
		t.Fatal("full-symmetry store must merge orbit-mates onto one key")
	}

	// Pinning 1 and 2 keeps them apart: swapping their roles is no longer
	// in the subgroup the pinned store canonicalizes over.
	pinned := newStateStore(p, Plan{Pinned: []int{1, 2}, Store: StoreOptions{}})
	fpA, keyA = pinned.Prepare(a)
	fpB, keyB = pinned.Prepare(b)
	if fpA == fpB && keyA.Equal(keyB) {
		t.Fatal("pinned store merged states that differ on a pinned pid")
	}
}

// TestStoreConformanceConcurrent drives every variant from several
// goroutines under -race. Every variant must answer racing lookups while
// nothing inserts. The lock-free bitstate store must also take racing
// inserts: disjoint writers must all land, contending writers of the same
// key must collapse to one entry, and readers racing the writers must never
// see a torn value (only "absent" or an inserted value). The exact store,
// spilled or not, is exempt from those by contract — only one goroutine
// inserts into it.
func TestStoreConformanceConcurrent(t *testing.T) {
	p := conformanceProg()
	allStates := reachableStates(p, 1024)
	const writers = 8
	for _, v := range storeVariants(t) {
		t.Run(v.name, func(t *testing.T) {
			st := newStateStore(p, v.plan)
			states := dedupeByKey(st, allStates)
			// Phase 0: racing readers of a store nobody writes, holding the
			// even-indexed states. Inserted states must hit with their
			// values; the others must miss, except in the lossy tiers,
			// whose false hits the parity matrix and fuzz target bound.
			for i := 0; i < len(states); i += 2 {
				fp, key := st.Prepare(states[i])
				st.Insert(fp, key, int32(i))
			}
			var wg sync.WaitGroup
			for r := 0; r < writers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := range states {
						fp, key := st.Prepare(states[i])
						val, ok := st.Lookup(fp, key)
						if i%2 == 0 && (!ok || (v.values && val != int32(i))) {
							t.Errorf("reader %d: inserted state %d reads (%d, %v)", r, i, val, ok)
							return
						}
						if i%2 == 1 && ok && !v.plan.Store.Lossy() {
							t.Errorf("reader %d: state %d hit before its insert", r, i)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			if t.Failed() || !v.concurrent {
				return
			}
			// Phase 1: disjoint slices, racing inserts plus racing reads.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(states); i += writers {
						fp, key := st.Prepare(states[i])
						st.Insert(fp, key, int32(i))
						if val, ok := st.Lookup(fp, key); !ok || (v.values && val != int32(i)) {
							t.Errorf("writer %d: own insert of state %d not visible: (%d, %v)", w, i, val, ok)
							return
						}
					}
				}(w)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := range states {
						fp, key := st.Prepare(states[i])
						if val, ok := st.Lookup(fp, key); ok && v.values && val != int32(i) {
							t.Errorf("reader %d: state %d present with foreign value %d", w, i, val)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Phase 2: all writers contend on the same keys and values;
			// the store must end up exactly as a single writer would leave
			// it.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, s := range states[:128] {
						fp, key := st.Prepare(s)
						st.Insert(fp, key, int32(i))
					}
				}()
			}
			wg.Wait()
			for i, s := range states {
				fp, key := st.Prepare(s)
				val, ok := st.Lookup(fp, key)
				if !ok {
					t.Fatalf("state %d lost after concurrent phase", i)
				}
				if v.values && val != int32(i) {
					t.Fatalf("state %d: value %d after contending same-value inserts, want %d", i, val, i)
				}
			}
		})
	}
}

// TestStoreVerdictParityMatrix is the engine-level conformance clause:
// on every registered specification, at sizes up to N=4, every store
// tier must reach the exact store's verdict. The exact spill tier must
// match the exact baseline state-for-state and trace-for-trace (same
// search, different residency); the lossy tiers must agree on the verdict
// and carry an honest StoreReport. Every tier keeps its states in a slab,
// so every violating cell's counterexample must replay step by step, in
// the lossy tiers too.
func TestStoreVerdictParityMatrix(t *testing.T) {
	cells := []struct {
		n, m     int
		sym, por bool
	}{
		{2, 2, false, false},
		{3, 2, false, false},
		{4, 2, true, true}, // reductions keep the N=4 row affordable
	}
	modes := []string{"exact,spill", "bitstate", "bitstate,spill"}
	// Every run of a cell gets the same explicit state budget: the lossy
	// tiers' larger DEFAULT budget (BeyondRAMMaxStates) would otherwise
	// let them finish a search the exact baseline truncated, which reads
	// as a verdict divergence but is only a budget difference.
	const matrixBudget = 1_000_000
	for _, name := range specs.Names() {
		for _, cell := range cells {
			if name == "blackwhite" && cell.n == 4 {
				// Black-White is the declared-asymmetric control: the
				// reductions barely bite and its N=4 space costs ~45s per
				// store mode — its keying is covered by the N<=3 rows.
				continue
			}
			p, err := specs.Get(name, specs.Config{N: cell.n, M: cell.m})
			if err != nil {
				t.Fatal(err)
			}
			base := Check(p, Options{
				Invariants: []Invariant{Mutex(), NoOverflow()},
				Symmetry:   cell.sym, POR: cell.por,
				MaxStates: matrixBudget,
			})
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s-n%d-m%d/%s", name, cell.n, cell.m, mode), func(t *testing.T) {
					pr, err := specs.Get(name, specs.Config{N: cell.n, M: cell.m})
					if err != nil {
						t.Fatal(err)
					}
					res := Check(pr, Options{
						Invariants: []Invariant{Mutex(), NoOverflow()},
						Symmetry:   cell.sym, POR: cell.por,
						MaxStates: matrixBudget,
						Store:     mustStore(t, mode),
					})
					if got, want := verdictClass(res), verdictClass(base); got != want {
						t.Fatalf("verdict %q diverges from exact baseline %q", got, want)
					}
					if res.Store == nil {
						t.Fatal("non-default store left Result.Store nil")
					}
					so := mustStore(t, mode)
					if res.Store.Lossy != so.Lossy() {
						t.Fatalf("StoreReport.Lossy = %v for mode %s", res.Store.Lossy, mode)
					}
					if res.Violation != nil {
						replayCounterexample(t, pr, res.Violation, []Invariant{Mutex(), NoOverflow()})
					}
					if mode == "exact,spill" {
						if res.States != base.States || res.Transitions != base.Transitions || res.Depth != base.Depth {
							t.Fatalf("spill run (%d states, %d transitions, depth %d) is not byte-identical to exact (%d, %d, %d)",
								res.States, res.Transitions, res.Depth, base.States, base.Transitions, base.Depth)
						}
						if res.Violation != nil && res.Violation.Trace.String() != base.Violation.Trace.String() {
							t.Fatalf("spill counterexample differs from exact's:\n%s\nexact:\n%s",
								res.Violation.Trace.String(), base.Violation.Trace.String())
						}
					}
					if res.Store.Lossy {
						if res.Store.Entries <= 0 {
							t.Fatal("lossy StoreReport carries no entry count")
						}
						if res.Store.Confidence <= 0 || res.Store.Confidence > 1 {
							t.Fatalf("confidence %v outside (0,1]", res.Store.Confidence)
						}
						if res.Store.Banner() == "" {
							t.Fatal("lossy run renders no probabilistic-verdict banner")
						}
					}
				})
			}
		}
	}
}

// TestStoreEngineDeterminism pins the determinism half of the store
// contract at the engine level: exact tiers are byte-identical for any
// Workers value, and lossy tiers have a per-seed-stable RunFingerprint
// across engines (the property the CI determinism smoke re-checks on the
// bigger headline configuration).
func TestStoreEngineDeterminism(t *testing.T) {
	for _, mode := range []string{"exact,spill", "bitstate", "bitstate,spill"} {
		for _, seed := range []uint64{0, 0xfeed} {
			so := mustStore(t, mode)
			so.Seed = seed
			opts := func(workers int) Options {
				return Options{
					Invariants: []Invariant{Mutex(), NoOverflow()},
					Workers:    workers,
					Store:      so,
				}
			}
			seq := Check(specs.BakeryPP(specs.Config{N: 3, M: 2}), opts(0))
			par := Check(specs.BakeryPP(specs.Config{N: 3, M: 2}), opts(-1))
			if !so.Lossy() {
				if seq.States != par.States || seq.Transitions != par.Transitions || seq.Depth != par.Depth {
					t.Fatalf("%s: engines diverge: seq (%d,%d,%d) vs par (%d,%d,%d)", mode,
						seq.States, seq.Transitions, seq.Depth, par.States, par.Transitions, par.Depth)
				}
			}
			if seq.RunFingerprint() != par.RunFingerprint() {
				t.Fatalf("%s seed %d: run fingerprint %016x (sequential) != %016x (parallel)",
					mode, seed, seq.RunFingerprint(), par.RunFingerprint())
			}
		}
	}
}

// TestLossyStoreReportIndependentOfWorkers pins the whole store report of
// the lossy tier, in the heap and spilled — entries, bits set, and the omission bound, which for
// bitstate depends on the probe count — as identical at Workers 0, 2 and
// 4: only the merge probes the store, once per successor, for any worker
// count, so the verdict banner does not depend on -workers either.
func TestLossyStoreReportIndependentOfWorkers(t *testing.T) {
	for _, mode := range []string{"bitstate", "bitstate,spill"} {
		for _, reduce := range []bool{false, true} {
			check := func(workers int) *Result {
				return Check(specs.BakeryPP(specs.Config{N: 3, M: 2}), Options{
					Invariants: []Invariant{Mutex(), NoOverflow()},
					Workers:    workers,
					Symmetry:   reduce,
					POR:        reduce,
					Store:      mustStore(t, mode),
				})
			}
			seq := check(0)
			for _, workers := range []int{2, 4} {
				par := check(workers)
				if !reflect.DeepEqual(*seq.Store, *par.Store) {
					t.Fatalf("%s reduce=%v: store report at Workers %d differs from Workers 0:\n  %+v\n  %+v",
						mode, reduce, workers, *par.Store, *seq.Store)
				}
				if seq.Store.Banner() != par.Store.Banner() {
					t.Fatalf("%s reduce=%v: banner differs at Workers %d", mode, reduce, workers)
				}
			}
		}
	}
}

// verdictClass folds a Result into the comparable verdict string the
// parity matrix checks (mirrors the harness's verdict column).
func verdictClass(r *Result) string {
	switch {
	case r.Violation != nil:
		return "VIOLATION:" + r.Violation.Invariant
	case r.Deadlock != nil:
		return "DEADLOCK"
	case !r.Complete:
		return "incomplete"
	default:
		return "verified"
	}
}
