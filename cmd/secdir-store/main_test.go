package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestVerifyLegacyEngineLedger: `secdir-store verify` accepts a ledger whose
// records still carry the legacy engine_shards/engine_window fields.
func TestVerifyLegacyEngineLedger(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "store", "testdata", "legacy-engine-ledger")
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(dst, []string{"verify"}); err != nil {
		t.Fatalf("secdir-store verify: %v", err)
	}
}
