package cachesim

import (
	"math/rand"
	"testing"

	"secdir/internal/addr"
)

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{LRU: "lru", Random: "random"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// TestPoliciesStructurallySound: every policy preserves the cache's
// structural invariants under random traffic.
func TestPoliciesStructurallySound(t *testing.T) {
	for _, p := range []Policy{LRU, Random} {
		c := New[int](8, 4, ModIndex(8), p, 7)
		rng := rand.New(rand.NewSource(3))
		resident := map[addr.Line]bool{}
		for i := 0; i < 20000; i++ {
			l := addr.Line(rng.Intn(256))
			switch rng.Intn(3) {
			case 0:
				v, ev := c.Put(l, i)
				if ev {
					if !resident[v.Line] {
						t.Fatalf("%v: evicted non-resident line", p)
					}
					delete(resident, v.Line)
				}
				resident[l] = true
			case 1:
				_, hit := c.Access(l)
				if hit != resident[l] {
					t.Fatalf("%v: Access(%d) hit=%v, tracker=%v", p, l, hit, resident[l])
				}
			case 2:
				_, ok := c.Remove(l)
				if ok != resident[l] {
					t.Fatalf("%v: Remove mismatch", p)
				}
				delete(resident, l)
			}
		}
		if c.Len() != len(resident) {
			t.Fatalf("%v: Len %d != tracker %d", p, c.Len(), len(resident))
		}
	}
}
