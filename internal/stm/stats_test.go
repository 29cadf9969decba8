package stm

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryCounter: Add's hand-kept list sums every counter
// of Stats, the embedded abort causes included, so an aggregate never
// drops one.
func TestStatsAddCoversEveryCounter(t *testing.T) {
	var one, sum Stats
	v := reflect.ValueOf(&one).Elem()
	var leaves []reflect.StructField
	for _, f := range reflect.VisibleFields(v.Type()) {
		if !f.Anonymous {
			leaves = append(leaves, f)
			v.FieldByIndex(f.Index).SetUint(uint64(len(leaves)))
		}
	}
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i, f := range leaves {
		if n := got.FieldByIndex(f.Index).Uint(); n != 2*uint64(i+1) {
			t.Errorf("Add: %s = %d, want %d", f.Name, n, 2*(i+1))
		}
	}
	if c := one.AbortCauses; c.Sum() != 4+5+6+7+8+9+10+11 {
		t.Errorf("Sum() = %d over causes %+v, want the eight counters' total", c.Sum(), c)
	}
}
