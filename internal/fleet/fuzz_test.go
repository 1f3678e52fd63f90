package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"secdir/internal/leakage"
)

// shardStreamCase is one worker response with the trial count the
// coordinator asked for (or a perf request), and whether the decoder must
// accept it.
type shardStreamCase struct {
	name  string
	data  []byte
	count uint8
	perf  bool
	ok    bool
}

func shardStreamCases() []shardStreamCase {
	var valid bytes.Buffer
	enc := json.NewEncoder(&valid)
	for i := 0; i < 2; i++ {
		_ = enc.Encode(ShardLine{Trial: &leakage.TrialResult{Index: i, Active: 1.5, Idle: 0.25, Accesses: 640}})
	}
	_ = enc.Encode(ShardLine{EOF: true, Count: 2})
	var perf bytes.Buffer
	enc = json.NewEncoder(&perf)
	_ = enc.Encode(ShardLine{Perf: &leakage.PerfResult{SimNsAccess: 21.0625, StorageKB: 1126.5, AreaMM2: 0.3125}})
	_ = enc.Encode(ShardLine{EOF: true})
	perfLine, _, _ := bytes.Cut(perf.Bytes(), []byte("\n"))
	perfLine = append(bytes.Clone(perfLine), '\n')
	return []shardStreamCase{
		{"complete", valid.Bytes(), 2, false, true},
		{"truncated", valid.Bytes()[:valid.Len()/2], 2, false, false},
		{"error-line", []byte(`{"error":"worker draining"}` + "\n"), 1, false, false},
		{"trial-after-eof", append(bytes.Clone(valid.Bytes()), `{"trial":{"index":2}}`+"\n"...), 2, false, false},
		{"perf", perf.Bytes(), 0, true, true},
		{"perf-no-eof", perfLine, 0, true, false},
		{"perf-twice", append(bytes.Clone(perfLine), perf.Bytes()...), 0, true, false},
		{"perf-in-trial-stream", perf.Bytes(), 0, false, false},
		{"trials-in-perf-stream", valid.Bytes(), 2, true, false},
	}
}

func TestDecodeShardStream(t *testing.T) {
	for _, c := range shardStreamCases() {
		out, err := decodeShardStream(bytes.NewReader(c.data), int(c.count), c.perf)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted = %v", c.name, err, c.ok)
		}
		if c.ok && (len(out.trials) != int(c.count) || (out.perf != nil) != c.perf) {
			t.Errorf("%s: %d trials, perf %v; want %d trials, perf %v", c.name, len(out.trials), out.perf, c.count, c.perf)
		}
	}
}

// FuzzShardStream drives arbitrary worker responses through the shard stream
// decoder, as answers to trial and to perf requests. It must never panic,
// and every stream it accepts must carry exactly count trials (a perf
// stream: none, and exactly one perf line) and end in an eof marker whose
// count matches.
func FuzzShardStream(f *testing.F) {
	for _, c := range shardStreamCases() {
		f.Add(c.data, c.count, c.perf)
	}
	f.Fuzz(func(t *testing.T, data []byte, count uint8, perf bool) {
		out, err := decodeShardStream(bytes.NewReader(data), int(count), perf)
		if err != nil {
			return
		}
		if len(out.trials) != int(count) {
			t.Fatalf("accepted %d trials, want %d", len(out.trials), count)
		}
		if (out.perf != nil) != perf {
			t.Fatalf("accepted perf result %v for a request with perf = %v", out.perf, perf)
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		last := lines[len(lines)-1]
		var eof ShardLine
		if err := json.Unmarshal(last, &eof); err != nil || !eof.EOF || eof.Count != int(count) {
			t.Fatalf("accepted a stream whose last line %q is not an eof marker counting %d trials", last, count)
		}
		trials, perfs := 0, 0
		for _, ln := range lines[:len(lines)-1] {
			var l ShardLine
			if json.Unmarshal(ln, &l) == nil {
				if l.Trial != nil {
					trials++
				}
				if l.Perf != nil {
					perfs++
				}
			}
		}
		if trials != int(count) {
			t.Fatalf("accepted a stream with %d trial lines, want %d", trials, count)
		}
		if want := map[bool]int{true: 1}[perf]; perfs != want {
			t.Fatalf("accepted a stream with %d perf lines, want %d", perfs, want)
		}
	})
}
