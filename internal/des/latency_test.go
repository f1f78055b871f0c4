package des

import (
	"strings"
	"testing"
)

// TestParseModelRoundTrip checks every accepted spec parses, reports a
// canonical Name that re-parses to an equivalent model, and charges
// costs >= 1 for every class.
func TestParseModelRoundTrip(t *testing.T) {
	specs := []string{
		"unit",
		"fixed:3",
		"jitter:2,5",
		"classes:step=2;hold=exp(12);think=uniform(0,80)",
		"classes:wait=1;spin=4",
	}
	for _, spec := range specs {
		m, err := ParseModel(spec, 42)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", spec, err)
		}
		if m.Name() != spec {
			t.Errorf("ParseModel(%q).Name() = %q, want the canonical spec back", spec, m.Name())
		}
		m2, err := ParseModel(m.Name(), 42)
		if err != nil {
			t.Fatalf("Name() %q does not re-parse: %v", m.Name(), err)
		}
		for c := Start; c <= Think; c++ {
			for _, work := range []int64{0, 1, 7} {
				if cost := m.Cost(c, 0, work); cost < 1 {
					t.Errorf("%q: Cost(%s, 0, %d) = %d < 1", spec, c, work, cost)
				}
				_ = m2
			}
		}
	}
	if _, err := ParseModel("", 0); err != nil {
		t.Errorf("empty spec should mean unit, got error %v", err)
	}
}

// TestParseModelRejects checks malformed specs fail loudly instead of
// silently defaulting.
func TestParseModelRejects(t *testing.T) {
	bad := []string{
		"fixed:0", "fixed:x", "jitter:3", "jitter:0,2", "jitter:2,-1",
		"classes:", "classes:step", "classes:nope=3", "classes:block=1",
		"classes:step=0", "classes:step=exp(0)", "classes:step=uniform(5,2)",
		"classes:step=1;step=2", "gaussian:1",
	}
	for _, spec := range bad {
		if _, err := ParseModel(spec, 0); err == nil {
			t.Errorf("ParseModel(%q) accepted a malformed spec", spec)
		}
	}
}

// TestModelDeterminism: the cost stream of every model is a pure
// function of (spec, seed, call sequence) — two instances with the same
// seed agree call for call, and a different seed diverges for the
// stochastic models.
func TestModelDeterminism(t *testing.T) {
	specs := []string{"unit", "fixed:2", "jitter:1,9", "classes:hold=exp(20);think=uniform(0,50)"}
	for _, spec := range specs {
		a, _ := ParseModel(spec, 7)
		b, _ := ParseModel(spec, 7)
		c, _ := ParseModel(spec, 8)
		same, diff := true, false
		for i := 0; i < 200; i++ {
			class := Class(i % numClasses)
			pid := i % 3
			work := int64(i % 5)
			av := a.Cost(class, pid, work)
			if av != b.Cost(class, pid, work) {
				same = false
			}
			if av != c.Cost(class, pid, work) {
				diff = true
			}
		}
		if !same {
			t.Errorf("%q: same seed produced different cost streams", spec)
		}
		stochastic := strings.HasPrefix(spec, "jitter") || strings.HasPrefix(spec, "classes")
		if stochastic && !diff {
			t.Errorf("%q: different seeds produced identical cost streams", spec)
		}
	}
}

// TestJitterPerPidStreams: the costs one pid draws must not shift when
// another pid draws in between — each pid owns an independent stream.
func TestJitterPerPidStreams(t *testing.T) {
	solo, _ := ParseModel("jitter:1,1000", 3)
	mixed, _ := ParseModel("jitter:1,1000", 3)
	var want, got []int64
	for i := 0; i < 50; i++ {
		want = append(want, solo.Cost(Step, 1, 0))
	}
	for i := 0; i < 50; i++ {
		mixed.Cost(Step, 0, 0) // interleave draws for pid 0
		got = append(got, mixed.Cost(Step, 1, 0))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pid 1's draw %d changed from %d to %d when pid 0 drew in between", i, want[i], got[i])
		}
	}
}

// TestExpDistMean sanity-checks the exponential draw: over many draws
// the mean lands near the configured mean (within 15%).
func TestExpDistMean(t *testing.T) {
	m, _ := ParseModel("classes:hold=exp(40)", 11)
	var sum int64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += m.Cost(Hold, 0, 0)
	}
	mean := float64(sum) / n
	if mean < 34 || mean > 46 {
		t.Fatalf("exp(40) sample mean = %.1f, want ~40", mean)
	}
}
