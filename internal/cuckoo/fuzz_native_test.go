package cuckoo

import (
	"testing"

	"secdir/internal/addr"
)

// FuzzTableOps is a native fuzz target over raw operation bytes: byte 2k
// selects insert/remove/contains for the line in byte 2k+1. Run with
// `go test -fuzz FuzzTableOps ./internal/cuckoo` for open-ended exploration;
// under plain `go test` the seed corpus below acts as a regression test.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 10, 0, 10, 1, 10})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := New(Config{Sets: 4, Ways: 2, NumRelocations: 3, Cuckoo: true, Seed: 1})
		resident := map[addr.Line]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			l := addr.Line(ops[i+1] % 64)
			switch ops[i] % 3 {
			case 0:
				v, ev := tb.Insert(l)
				if ev {
					if !resident[v] && v != l {
						t.Fatalf("evicted never-inserted line %#x", uint64(v))
					}
					delete(resident, v)
					if v != l {
						resident[l] = true
					}
				} else {
					resident[l] = true
				}
			case 1:
				if ok := tb.Remove(l); ok != resident[l] {
					t.Fatalf("Remove(%#x) = %v, tracker %v", uint64(l), ok, resident[l])
				}
				delete(resident, l)
			case 2:
				if got := tb.Contains(l); got != resident[l] {
					t.Fatalf("Contains(%#x) = %v, tracker %v", uint64(l), got, resident[l])
				}
			}
			if tb.Len() != len(resident) {
				t.Fatalf("Len %d != tracker %d", tb.Len(), len(resident))
			}
		}
	})
}
