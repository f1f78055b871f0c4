package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"bakerypp/internal/specs"
)

// smokeSpec is the harness's "smoke" preset (internal/harness keeps the
// preset table; this package cannot import it).
const smokeSpec = "name=smoke;algo=bakerypp;shards=4;n=4;m=64;clients=30000;admit=token:900,32;" +
	"class=gold/1/poisson:40/fixed:4/60;" +
	"class=bulk/2/burst:60,4/poisson:9/300;" +
	"class=batch/1/poisson:90/bimodal:4,60,10/1200"

// TestScenarioGoldenFingerprints pins run fingerprints to committed
// values, so a change to the per-event step that alters any schedule,
// branch choice or tag shows here even when every run still agrees with
// every other. The smoke preset is pinned at seed 1 (bakeryserve's
// default), together with a hash of its recorded log bytes; every
// scenario-capable algorithm is pinned open and closed loop, at unit and
// jittered latency.
func TestScenarioGoldenFingerprints(t *testing.T) {
	var log bytes.Buffer
	res, err := Run(mustParse(t, smokeSpec), Options{Seed: 1, Record: &log})
	if err != nil {
		t.Fatal(err)
	}
	if fp := res.Fingerprint(); fp != "b7fcb2b12fec14e0" {
		t.Errorf("smoke fingerprint %s, want b7fcb2b12fec14e0", fp)
	}
	sum := sha256.Sum256(log.Bytes())
	if h := hex.EncodeToString(sum[:8]); h != "d632e5e6748a6b76" {
		t.Errorf("smoke log sha256 prefix %s, want d632e5e6748a6b76", h)
	}

	golden := []struct{ algo, arrival, latency, fp string }{
		{"bakery", "poisson:6", "unit", "8b4d2ab90f8e1706"},
		{"bakery", "poisson:6", "jitter:1,3", "23aedfc5febb859e"},
		{"bakery", "closed:fixed:2", "unit", "4b0f1c7a30ba7244"},
		{"bakery", "closed:fixed:2", "jitter:1,3", "2af7a6b680d89cf3"},
		{"bakerypp", "poisson:6", "unit", "816f21936b8240c0"},
		{"bakerypp", "poisson:6", "jitter:1,3", "53cab210be575748"},
		{"bakerypp", "closed:fixed:2", "unit", "18bdba19b48e88b2"},
		{"bakerypp", "closed:fixed:2", "jitter:1,3", "a8d907067364714c"},
		{"blackwhite", "poisson:6", "unit", "a6430ab77f995941"},
		{"blackwhite", "poisson:6", "jitter:1,3", "92cf72824b76f323"},
		{"blackwhite", "closed:fixed:2", "unit", "1f5830396d84eb44"},
		{"blackwhite", "closed:fixed:2", "jitter:1,3", "b2821f3777361596"},
		{"modbakery", "poisson:6", "unit", "5cf5cfa6ff5c072b"},
		{"modbakery", "poisson:6", "jitter:1,3", "a99da6fb9a4522a4"},
		{"modbakery", "closed:fixed:2", "unit", "bbc15d80c05de7a0"},
		{"modbakery", "closed:fixed:2", "jitter:1,3", "db2aa0ceee549631"},
		{"peterson", "poisson:6", "unit", "2e5cb841965cc926"},
		{"peterson", "poisson:6", "jitter:1,3", "7c2d8782890af343"},
		{"peterson", "closed:fixed:2", "unit", "86bcb9d284ddfd60"},
		{"peterson", "closed:fixed:2", "jitter:1,3", "b70f980bf2783ad3"},
		{"szymanski", "poisson:6", "unit", "11e7a493ee5dcf19"},
		{"szymanski", "poisson:6", "jitter:1,3", "831fd899e33de29a"},
		{"szymanski", "closed:fixed:2", "unit", "4595540edf0f8274"},
		{"szymanski", "closed:fixed:2", "jitter:1,3", "44742cfb56762580"},
	}
	pinned := map[string]bool{}
	for _, g := range golden {
		pinned[g.algo] = true
		s := mustParse(t, fmt.Sprintf("name=g;algo=%s;shards=2;n=3;m=5;clients=300;class=a/1/%s/fixed:3/100", g.algo, g.arrival))
		res, err := Run(s, Options{Seed: 4, Latency: g.latency})
		if err != nil {
			t.Fatal(err)
		}
		if fp := res.Fingerprint(); fp != g.fp {
			t.Errorf("%s %s %s: fingerprint %s, want %s", g.algo, g.arrival, g.latency, fp, g.fp)
		}
	}
	for _, algo := range specs.Names() {
		p, err := specs.Get(algo, specs.Config{N: 3, M: 5})
		if err != nil {
			t.Fatal(err)
		}
		if specs.Arbitrable(p) && !pinned[algo] {
			t.Errorf("algorithm %s has no golden fingerprint", algo)
		}
	}
}
