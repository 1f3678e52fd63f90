package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLedgerOpen replays arbitrary ledger bytes, split into lines, through
// Open and VerifyChain on a MemBackend that holds the legacy fixture's
// artifact. Neither may panic, and a ledger VerifyChain accepts must open
// with the same chain head. The seeds are the legacy ledger, the same ledger
// with a torn last line, and with its first two records swapped.
func FuzzLedgerOpen(f *testing.F) {
	ledger, err := os.ReadFile(filepath.Join(legacyLedger, "ledger.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	artifacts, err := filepath.Glob(filepath.Join(legacyLedger, "artifacts", "*", "*"))
	if err != nil || len(artifacts) == 0 {
		f.Fatalf("legacy fixture artifacts: %v %v", artifacts, err)
	}
	f.Add(ledger)
	f.Add(ledger[:len(ledger)-40])
	lines := bytes.SplitAfter(ledger, []byte("\n"))
	lines[0], lines[1] = lines[1], lines[0]
	f.Add(bytes.Join(lines, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewMem()
		for _, p := range artifacts {
			art, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.PutArtifact(filepath.Base(p), art); err != nil {
				t.Fatal(err)
			}
		}
		var lines [][]byte
		for _, ln := range bytes.Split(data, []byte("\n")) {
			if len(ln) > 0 {
				lines = append(lines, ln)
			}
		}
		if err := b.AppendLedger(lines); err != nil {
			t.Fatal(err)
		}
		s, openErr := Open(b, Options{})
		if openErr == nil {
			defer s.Close()
		}
		rep, err := VerifyChain(b)
		if err != nil {
			return
		}
		if openErr != nil {
			t.Fatalf("VerifyChain accepts the ledger but Open fails: %v", openErr)
		}
		if rep.Records != len(lines) || s.headIndex != rep.HeadIndex || s.headHash != rep.HeadHash {
			t.Fatalf("Open head (%d, %.12s) disagrees with VerifyChain %+v over %d lines",
				s.headIndex, s.headHash, rep, len(lines))
		}
	})
}
