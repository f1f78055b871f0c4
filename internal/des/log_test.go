package des

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

type testHeader struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	Seed int64  `json:"seed"`
}

// TestLogRoundTrip: a mixed stream of metadata and event lines must
// read back exactly, and writing the same stream twice must produce
// byte-identical files (the stability contract CI diffs rely on).
func TestLogRoundTrip(t *testing.T) {
	recs := []Rec{
		{T: 0, Pid: 0, Class: Start, Tag: ""},
		{T: 3, Pid: 1, Class: Step, Tag: "try"},
		{T: 9, Pid: 2, Class: Hold, Tag: "cs-enter", Overflow: true},
		{T: 12, Pid: 0, Class: Think, Tag: "reset"},
	}
	encode := func() []byte {
		var buf bytes.Buffer
		w := NewLogWriter(&buf)
		w.Meta(testHeader{V: LogVersion, Kind: "test", Seed: 7})
		for _, r := range recs {
			w.Event(r)
		}
		w.Meta(struct {
			FP string `json:"fingerprint"`
		}{"0xabc"})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of the same stream produced different bytes")
	}

	r := NewLogReader(bytes.NewReader(a))
	line, err := r.Next()
	if err != nil || line.IsEvent {
		t.Fatalf("first line: got (%+v, %v), want header metadata", line, err)
	}
	var hdr testHeader
	if err := json.Unmarshal(line.Raw, &hdr); err != nil || hdr.Kind != "test" || hdr.Seed != 7 {
		t.Fatalf("header did not round-trip: %+v, %v", hdr, err)
	}
	for i, want := range recs {
		line, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !line.IsEvent || line.Event != want {
			t.Fatalf("event %d read back as %+v, want %+v", i, line.Event, want)
		}
	}
	if line, err = r.Next(); err != nil || line.IsEvent {
		t.Fatalf("trailer: got (%+v, %v), want metadata", line, err)
	}
	if _, err = r.Next(); err != io.EOF {
		t.Fatalf("after last line: err = %v, want io.EOF", err)
	}
}

// TestLogReaderRejects: malformed lines must fail with an error naming
// the line, not be skipped.
func TestLogReaderRejects(t *testing.T) {
	bad := []string{
		"garbage\n",
		"[1,2]\n",               // wrong arity
		"[1,2,99,\"x\",0]\n",    // unknown class
		"[1,2,3,\"x\",7]\n",     // bad overflow flag
		"[\"a\",2,3,\"x\",0]\n", // non-numeric time
	}
	for _, s := range bad {
		r := NewLogReader(bytes.NewReader([]byte(s)))
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Errorf("line %q parsed without error", s)
		}
	}
}

// TestLogWriterStickyError: a metadata value that cannot marshal to an
// object poisons the writer and surfaces at Flush.
func TestLogWriterStickyError(t *testing.T) {
	var buf bytes.Buffer
	w := NewLogWriter(&buf)
	w.Meta([]int{1, 2, 3}) // marshals to an array, not an object
	w.Event(Rec{})
	if err := w.Flush(); err == nil {
		t.Fatal("non-object metadata did not surface an error at Flush")
	}
}
