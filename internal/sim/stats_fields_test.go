package sim

import (
	"reflect"
	"testing"

	"secdir/internal/coherence"
	"secdir/internal/directory"
)

// TestStatsArithmeticCoversEveryField sets each uint64 counter of the stats
// structs a Result is built from, one at a time, and checks that Add and Sub
// carry exactly that field. A counter missing from either method would read 0
// in every measured phase.
func TestStatsArithmeticCoversEveryField(t *testing.T) {
	t.Run("CoreStats", checkStatsArith[coherence.CoreStats])
	t.Run("directory.Stats", checkStatsArith[directory.Stats])
}

func checkStatsArith[T any, P interface {
	*T
	Add(T)
	Sub(T)
}](t *testing.T) {
	typ := reflect.TypeFor[T]()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("%s.%s is %v; extend this test to cover it", typ, f.Name, f.Type)
		}
		var one, sum, want T
		reflect.ValueOf(&one).Elem().Field(i).SetUint(7)
		reflect.ValueOf(&want).Elem().Field(i).SetUint(14)
		P(&sum).Add(one)
		P(&sum).Add(one)
		if !reflect.DeepEqual(sum, want) {
			t.Errorf("%s.Add drops or misroutes %s: got %+v", typ, f.Name, sum)
		}
		P(&sum).Sub(one)
		if !reflect.DeepEqual(sum, one) {
			t.Errorf("%s.Sub drops or misroutes %s: got %+v", typ, f.Name, sum)
		}
	}
}
