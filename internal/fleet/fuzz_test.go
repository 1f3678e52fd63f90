package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"secdir/internal/leakage"
)

// shardStreamCase is one worker response with the trial count the
// coordinator asked for, and whether the decoder must accept it.
type shardStreamCase struct {
	name  string
	data  []byte
	count uint8
	ok    bool
}

func shardStreamCases() []shardStreamCase {
	var valid bytes.Buffer
	enc := json.NewEncoder(&valid)
	for i := 0; i < 2; i++ {
		_ = enc.Encode(ShardLine{Trial: &leakage.TrialResult{Index: i, Active: 1.5, Idle: 0.25, Accesses: 640}})
	}
	_ = enc.Encode(ShardLine{EOF: true, Count: 2})
	return []shardStreamCase{
		{"complete", valid.Bytes(), 2, true},
		{"truncated", valid.Bytes()[:valid.Len()/2], 2, false},
		{"error-line", []byte(`{"error":"worker draining"}` + "\n"), 1, false},
		{"trial-after-eof", append(bytes.Clone(valid.Bytes()), `{"trial":{"index":2}}`+"\n"...), 2, false},
	}
}

func TestDecodeShardStream(t *testing.T) {
	for _, c := range shardStreamCases() {
		out, err := decodeShardStream(bytes.NewReader(c.data), int(c.count))
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted = %v", c.name, err, c.ok)
		}
		if c.ok && len(out) != int(c.count) {
			t.Errorf("%s: %d trials, want %d", c.name, len(out), c.count)
		}
	}
}

// FuzzShardStream drives arbitrary worker responses through the shard stream
// decoder. It must never panic, and every stream it accepts must carry
// exactly count trials and end in an eof marker whose count matches.
func FuzzShardStream(f *testing.F) {
	for _, c := range shardStreamCases() {
		f.Add(c.data, c.count)
	}
	f.Fuzz(func(t *testing.T, data []byte, count uint8) {
		out, err := decodeShardStream(bytes.NewReader(data), int(count))
		if err != nil {
			return
		}
		if len(out) != int(count) {
			t.Fatalf("accepted %d trials, want %d", len(out), count)
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		last := lines[len(lines)-1]
		var eof ShardLine
		if err := json.Unmarshal(last, &eof); err != nil || !eof.EOF || eof.Count != int(count) {
			t.Fatalf("accepted a stream whose last line %q is not an eof marker counting %d trials", last, count)
		}
		trials := 0
		for _, ln := range lines[:len(lines)-1] {
			var l ShardLine
			if json.Unmarshal(ln, &l) == nil && l.Trial != nil {
				trials++
			}
		}
		if trials != int(count) {
			t.Fatalf("accepted a stream with %d trial lines, want %d", trials, count)
		}
	})
}
