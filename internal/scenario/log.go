package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"bakerypp/internal/des"
)

// Recorded scenario logs use the des log grammar (des.LogVersion) with
// kind "scenario": a header carrying the canonical spec string (enough
// to rebuild the tables from the event stream alone), one shard marker
// per shard in canonical order, the shard's records, and a fingerprint
// trailer. Field order in these structs is the byte-stability contract;
// reordering fields changes recorded bytes.

type logHeader struct {
	V       int    `json:"v"`
	Kind    string `json:"kind"`
	Spec    string `json:"spec"`
	Seed    int64  `json:"seed"`
	Latency string `json:"latency"`
}

type logShard struct {
	Shard int `json:"shard"`
}

type logTrailer struct {
	Fingerprint string `json:"fingerprint"`
}

// logKind is the header kind value of a recorded scenario run;
// ReplayLog refuses any other kind.
const logKind = "scenario"

func writeLog(out io.Writer, spec *Spec, seed int64, latency string, shards [][]des.Rec, fingerprint string) error {
	w := des.NewLogWriter(out)
	w.Meta(logHeader{V: des.LogVersion, Kind: logKind, Spec: spec.String(), Seed: seed, Latency: latency})
	for shard, recs := range shards {
		w.Meta(logShard{Shard: shard})
		for _, r := range recs {
			w.Event(r)
		}
	}
	w.Meta(logTrailer{Fingerprint: fingerprint})
	return w.Flush()
}

// Replay is the outcome of replaying a recorded scenario log.
type Replay struct {
	Result *Result
	// Fingerprint is the replayed result's fingerprint; Recorded is the
	// one in the log's trailer. They match iff the replay rebuilt the
	// original tables bit-identically.
	Fingerprint string
	Recorded    string
}

// OK reports whether the replay is bit-identical to the recorded run.
func (r *Replay) OK() bool { return r.Fingerprint == r.Recorded }

// ReplayLog rebuilds a recorded scenario's result from its event log
// alone — no simulation, just the shared accumulator over the recorded
// streams — and returns it with both fingerprints.
func ReplayLog(rd io.Reader) (*Replay, error) {
	r := des.NewLogReader(rd)

	line, err := r.Next()
	if err != nil {
		return nil, fmt.Errorf("scenario: log is empty: %w", err)
	}
	var hdr logHeader
	if line.IsEvent || json.Unmarshal(line.Raw, &hdr) != nil || hdr.Kind != logKind {
		return nil, fmt.Errorf("scenario: not a scenario log (header %s)", line.Raw)
	}
	if hdr.V != des.LogVersion {
		return nil, fmt.Errorf("scenario: log version %d, this build reads %d", hdr.V, des.LogVersion)
	}
	spec, err := Parse(hdr.Spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: log header spec: %w", err)
	}

	res := newResult(spec, hdr.Seed, hdr.Latency)
	var (
		acc      *accum
		shards   int
		trailer  logTrailer
		sawTrail bool
	)
	closeShard := func() {
		if acc != nil {
			acc.mergeInto(res)
			acc = nil
		}
	}
	for {
		line, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if line.IsEvent {
			if acc == nil {
				return nil, fmt.Errorf("scenario: log has an event before any shard marker")
			}
			acc.Add(line.Event)
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line.Raw, &probe); err != nil {
			return nil, err
		}
		switch {
		case probe["shard"] != nil:
			closeShard()
			var sh logShard
			if err := json.Unmarshal(line.Raw, &sh); err != nil {
				return nil, err
			}
			if sh.Shard != shards {
				return nil, fmt.Errorf("scenario: log shard %d out of order (want %d)", sh.Shard, shards)
			}
			shards++
			acc = newAccum(spec)
		case probe["fingerprint"] != nil:
			closeShard()
			if err := json.Unmarshal(line.Raw, &trailer); err != nil {
				return nil, err
			}
			sawTrail = true
		default:
			return nil, fmt.Errorf("scenario: unrecognised log metadata %s", line.Raw)
		}
	}
	closeShard()
	if !sawTrail {
		return nil, fmt.Errorf("scenario: log has no fingerprint trailer (truncated recording?)")
	}
	if shards != spec.Shards {
		return nil, fmt.Errorf("scenario: log has %d shard markers, spec declares %d", shards, spec.Shards)
	}
	return &Replay{Result: res, Fingerprint: res.Fingerprint(), Recorded: trailer.Fingerprint}, nil
}
