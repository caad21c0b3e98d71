package health

import (
	"reflect"
	"testing"
)

func TestKindIndex(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != len(rules) {
		t.Fatalf("%d kinds, %d rules", len(kinds), len(rules))
	}
	for i, k := range kinds {
		if got := kindIndex(k); got != i {
			t.Errorf("kindIndex(%q) = %d, want %d", k, got, i)
		}
	}
	if got := kindIndex("no-such-kind"); got != -1 {
		t.Errorf("kindIndex of an unknown kind = %d, want -1", got)
	}
}

// TestOrderedKeepsDetectorOpenAsIs: an open set already in detector order
// comes back as the same slice (no copy); any other order, a duplicate or
// an unknown kind comes back as a fresh detector-ordered list holding the
// last incident of each known kind, and the input is left as it was.
func TestOrderedKeepsDetectorOpenAsIs(t *testing.T) {
	in := func(kind string, first uint64) Incident { return Incident{Kind: kind, FirstEpoch: first} }
	ordered := []Incident{in(KindSwapThrash, 1), in(KindQueueSaturation, 2), in(KindRowThrash, 3)}
	if got := Ordered(ordered); &got[0] != &ordered[0] || len(got) != len(ordered) {
		t.Errorf("Ordered copied an already ordered open set")
	}
	if got := Ordered(nil); got != nil {
		t.Errorf("Ordered(nil) = %v, want nil", got)
	}
	for _, tc := range []struct {
		name string
		open []Incident
		want []Incident
	}{
		{"reversed", []Incident{in(KindRowThrash, 3), in(KindSwapThrash, 1)},
			[]Incident{in(KindSwapThrash, 1), in(KindRowThrash, 3)}},
		{"duplicate keeps the last", []Incident{in(KindLockChurn, 1), in(KindLockChurn, 5)},
			[]Incident{in(KindLockChurn, 5)}},
		{"unknown dropped", []Incident{in("no-such-kind", 1), in(KindLockChurn, 2)},
			[]Incident{in(KindLockChurn, 2)}},
		{"only unknown", []Incident{in("no-such-kind", 1)}, nil},
	} {
		before := append([]Incident(nil), tc.open...)
		if got := Ordered(tc.open); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Ordered = %+v, want %+v", tc.name, got, tc.want)
		}
		if !reflect.DeepEqual(tc.open, before) {
			t.Errorf("%s: Ordered modified its input to %+v", tc.name, tc.open)
		}
	}
}
