package dirtyset

import (
	"reflect"
	"testing"
)

// TestDrainVisitsMarkedOnce checks Drain reports each marked set once, in
// ascending order, across word boundaries, and leaves the bitmap clear.
func TestDrainVisitsMarkedOnce(t *testing.T) {
	b := New(200)
	marks := []int{199, 0, 64, 63, 5, 128, 5, 64}
	for _, m := range marks {
		b.Mark(m)
	}
	var got []int
	b.Drain(func(set int) { got = append(got, set) })
	if want := []int{0, 5, 63, 64, 128, 199}; !reflect.DeepEqual(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	b.Drain(func(set int) { t.Fatalf("set %d still marked after Drain", set) })
}

// TestDrainAllocFree pins the reset path's promise: draining allocates
// nothing.
func TestDrainAllocFree(t *testing.T) {
	b := New(4096)
	n := 0
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 4096; i += 7 {
			b.Mark(i)
		}
		b.Drain(func(int) { n++ })
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per mark+drain, want 0", allocs)
	}
}
