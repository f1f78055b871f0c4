package des

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Event logs.
//
// A recorded run is a JSON-lines stream with two kinds of line:
//
//   - metadata lines: one JSON object each, produced by marshalling a
//     caller-supplied struct (struct field order makes the bytes a pure
//     function of the values — no map iteration anywhere). The harness
//     uses these for the log header, per-cell and per-run markers, and
//     the trailing fingerprint.
//
//   - event lines: one compact JSON array per executed event,
//     [time, pid, class, "tag", overflow] with class as its numeric
//     value and overflow as 0/1. Example: [37,2,4,"cs-enter",0].
//
// The encoding is byte-stable: writing the same logical stream twice
// yields identical files, which is what lets CI diff a GOMAXPROCS=1
// recording against an all-cores one and lets cmd/bakeryreplay promise
// byte-identical tables. LogVersion guards the grammar; bump it on any
// change to either line kind.
const LogVersion = 1

// Rec is one recorded simulation event: at virtual time T, process Pid
// completed an action of class Class. Tag carries the spec branch tag
// ("try", "cs-enter", "reset", ...) when the action had one; Overflow
// marks actions that took a ticket-overflow branch.
type Rec struct {
	T        int64
	Pid      int
	Class    Class
	Tag      string
	Overflow bool
}

// LogWriter serialises a recorded run. Errors are sticky: the first
// write error is kept and returned by Flush, so call sites can write an
// entire stream and check once.
type LogWriter struct {
	bw  *bufio.Writer
	err error
}

// NewLogWriter returns a LogWriter on w.
func NewLogWriter(w io.Writer) *LogWriter {
	return &LogWriter{bw: bufio.NewWriter(w)}
}

// Meta writes one metadata line: v marshalled as a single JSON object.
// v must marshal to an object (not an array), or readers could not tell
// it from an event line; that property is the caller's to uphold.
func (w *LogWriter) Meta(v any) {
	if w.err != nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		w.err = err
		return
	}
	if len(data) == 0 || data[0] != '{' {
		w.err = fmt.Errorf("des: log metadata must marshal to a JSON object, got %.20s", data)
		return
	}
	data = append(data, '\n')
	_, w.err = w.bw.Write(data)
}

// Event writes one event line.
func (w *LogWriter) Event(r Rec) {
	if w.err != nil {
		return
	}
	tag, err := json.Marshal(r.Tag)
	if err != nil {
		w.err = err
		return
	}
	o := 0
	if r.Overflow {
		o = 1
	}
	_, w.err = fmt.Fprintf(w.bw, "[%d,%d,%d,%s,%d]\n", r.T, r.Pid, uint8(r.Class), tag, o)
}

// Flush drains the buffer and returns the first error encountered by
// any prior write.
func (w *LogWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// LogLine is one parsed line of a recorded run: either an event or a
// metadata object (Raw holds the object bytes for the caller to
// unmarshal into its own struct).
type LogLine struct {
	IsEvent bool
	Event   Rec
	Raw     json.RawMessage
}

// LogReader parses a recorded run line by line.
type LogReader struct {
	sc   *bufio.Scanner
	line int
}

// NewLogReader returns a LogReader on r.
func NewLogReader(r io.Reader) *LogReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &LogReader{sc: sc}
}

// Next returns the next line, or io.EOF after the last.
func (r *LogReader) Next() (LogLine, error) {
	for r.sc.Scan() {
		r.line++
		data := r.sc.Bytes()
		if len(data) == 0 {
			continue
		}
		switch data[0] {
		case '{':
			return LogLine{Raw: append(json.RawMessage(nil), data...)}, nil
		case '[':
			rec, err := parseEventLine(data)
			if err != nil {
				return LogLine{}, fmt.Errorf("des: log line %d: %w", r.line, err)
			}
			return LogLine{IsEvent: true, Event: rec}, nil
		default:
			return LogLine{}, fmt.Errorf("des: log line %d: unrecognised line start %q", r.line, data[0])
		}
	}
	if err := r.sc.Err(); err != nil {
		return LogLine{}, err
	}
	return LogLine{}, io.EOF
}

func parseEventLine(data []byte) (Rec, error) {
	var fields []json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return Rec{}, err
	}
	if len(fields) != 5 {
		return Rec{}, fmt.Errorf("event line has %d fields, want 5 (v%d grammar)", len(fields), LogVersion)
	}
	var (
		rec   Rec
		class uint8
		o     int
	)
	if err := json.Unmarshal(fields[0], &rec.T); err != nil {
		return Rec{}, fmt.Errorf("bad event time: %w", err)
	}
	if err := json.Unmarshal(fields[1], &rec.Pid); err != nil {
		return Rec{}, fmt.Errorf("bad event pid: %w", err)
	}
	if err := json.Unmarshal(fields[2], &class); err != nil {
		return Rec{}, fmt.Errorf("bad event class: %w", err)
	}
	if int(class) >= numClasses {
		return Rec{}, fmt.Errorf("unknown event class %d", class)
	}
	rec.Class = Class(class)
	if err := json.Unmarshal(fields[3], &rec.Tag); err != nil {
		return Rec{}, fmt.Errorf("bad event tag: %w", err)
	}
	if err := json.Unmarshal(fields[4], &o); err != nil || (o != 0 && o != 1) {
		return Rec{}, fmt.Errorf("bad event overflow flag %s", fields[4])
	}
	rec.Overflow = o == 1
	return rec, nil
}
