package flex

import (
	"context"
	"math"
	"testing"
)

// sameMeasureBits compares two measure values bit for bit, except that
// any NaN equals any NaN: a NaN cell is null on the wire whatever its
// payload.
func sameMeasureBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestMeasuresSetMatchesSetValue pins the set row that measureTable
// folds from the computed columns to each measure's own SetValue (and
// every cell to its Value), for shards 1/2/4 × workers 1/3 and every
// norm. The fleet holds an offer with |cmin|+|cmax| = 0, so the
// relative-area column carries a NaN row, and is large enough for the
// assignments product to saturate to +Inf.
func TestMeasuresSetMatchesSetValue(t *testing.T) {
	fleet := shardedFleet(t, 5, 300, 4)
	zero, err := NewFlexOffer(3, 7, Slice{Min: -2, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	zero.TotalMin, zero.TotalMax = 0, 0
	cases := map[string][]*FlexOffer{
		"fleet":        fleet,
		"fleet+zero":   append(append([]*FlexOffer{}, fleet[:150]...), append([]*FlexOffer{zero}, fleet[150:]...)...),
		"single":       fleet[:1],
		"single zero":  {zero},
		"empty":        nil,
		"small prefix": fleet[:7],
	}
	for _, norm := range []Norm{L1, L2, LInf} {
		ms := measureSet(norm)
		for name, offers := range cases {
			for _, shards := range []int{1, 2, 4} {
				for _, workers := range []int{1, 3} {
					se := NewSharded(shards, WithWorkers(workers), WithNorm(norm))
					got, err := se.Measures(context.Background(), offers)
					se.Close()
					if err != nil {
						t.Fatal(err)
					}
					checkMeasureTable(t, name, norm, shards, workers, ms, offers, got)
				}
			}
			eng := New(WithWorkers(3), WithNorm(norm))
			got, err := eng.Measures(context.Background(), offers)
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			checkMeasureTable(t, name, norm, 0, 3, ms, offers, got)
		}
	}
}

// checkMeasureTable compares got against the per-measure Value and
// SetValue of ms on offers (rows in input order; shards 0 means a
// plain Engine).
func checkMeasureTable(t *testing.T, name string, norm Norm, shards, workers int, ms []Measure, offers []*FlexOffer, got *MeasureTable) {
	t.Helper()
	if len(got.Values) != len(offers) || len(got.Set) != len(ms) {
		t.Fatalf("%s norm=%v shards=%d workers=%d: table shape %d×%d", name, norm, shards, workers, len(got.Values), len(got.Set))
	}
	for j, m := range ms {
		want, err := m.SetValue(offers)
		if err != nil {
			want = math.NaN()
		}
		if !sameMeasureBits(got.Set[j], want) {
			t.Errorf("%s norm=%v shards=%d workers=%d: Set[%s] = %v (%#x), SetValue = %v (%#x)",
				name, norm, shards, workers, m.Name(), got.Set[j], math.Float64bits(got.Set[j]), want, math.Float64bits(want))
		}
		for i, f := range offers {
			want, err := m.Value(f)
			if err != nil {
				want = math.NaN()
			}
			if !sameMeasureBits(got.Values[i][j], want) {
				t.Fatalf("%s norm=%v shards=%d workers=%d: Values[%d][%s] = %v, Value = %v",
					name, norm, shards, workers, i, m.Name(), got.Values[i][j], want)
			}
		}
	}
	if name == "fleet" && !math.IsInf(got.Set[5], 1) {
		t.Errorf("%s: assignments set value %v, want the saturated +Inf", name, got.Set[5])
	}
}
