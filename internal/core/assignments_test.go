package core_test

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/workload"
)

// oracleAssignmentsSet is the exact serial product AssignmentsMeasure
// computed before saturation: one big.Int multiplied by every offer's
// count, converted once at the end.
func oracleAssignmentsSet(fs []*flexoffer.FlexOffer) (float64, error) {
	if len(fs) == 0 {
		return 0, core.ErrEmptySet
	}
	total := big.NewInt(1)
	for _, f := range fs {
		total.Mul(total, core.AssignmentFlexibility(f))
	}
	v, _ := new(big.Float).SetInt(total).Float64()
	return v, nil
}

// oracleAssignmentsValue is the per-offer count through big.Float.
func oracleAssignmentsValue(f *flexoffer.FlexOffer) float64 {
	v, _ := new(big.Float).SetInt(core.AssignmentFlexibility(f)).Float64()
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// countOffer builds an offer without validation whose time factor is
// tf+1 and whose slice spans are spans — negative or zero factors
// included, which only library callers can construct.
func countOffer(tf int, spans ...int64) *flexoffer.FlexOffer {
	f := &flexoffer.FlexOffer{EarliestStart: 10, LatestStart: 10 + tf}
	for _, s := range spans {
		f.Slices = append(f.Slices, flexoffer.Slice{Min: 1, Max: 1 + s})
	}
	return f
}

func repeatOffer(f *flexoffer.FlexOffer, n int) []*flexoffer.FlexOffer {
	out := make([]*flexoffer.FlexOffer, n)
	for i := range out {
		out[i] = f
	}
	return out
}

// TestAssignmentsSetMatchesOracleOnFleet checks the saturating product
// bit for bit against the exact one on every prefix of a DefaultMix
// fleet up to 300 offers (the product passes 2^1024 well inside that
// range) and on the whole fleet.
func TestAssignmentsSetMatchesOracleOnFleet(t *testing.T) {
	offers, err := workload.Population(rand.New(rand.NewSource(7)), 2000, 3, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	m := core.AssignmentsMeasure{}
	saturated := false
	check := func(fs []*flexoffer.FlexOffer) {
		t.Helper()
		want, werr := oracleAssignmentsSet(fs)
		got, gerr := m.SetValue(fs)
		if !errors.Is(gerr, werr) || !sameBits(got, want) {
			t.Fatalf("prefix %d: SetValue = %v, %v; oracle %v, %v", len(fs), got, gerr, want, werr)
		}
		saturated = saturated || math.IsInf(got, 1)
	}
	for n := 0; n <= 300; n++ {
		check(offers[:n])
	}
	if !saturated {
		t.Fatal("no prefix reached +Inf; the fleet does not exercise saturation")
	}
	check(offers)
}

// TestAssignmentsSetSaturationBoundary pins the exact threshold: 1023
// offers with two assignments each multiply to 2^1023, the largest
// finite power of two, and one more overflows to +Inf.
func TestAssignmentsSetSaturationBoundary(t *testing.T) {
	two := countOffer(1) // (1+1) start times, no slices
	m := core.AssignmentsMeasure{}
	cases := []struct {
		name string
		fs   []*flexoffer.FlexOffer
		want float64
	}{
		{"2^1023", repeatOffer(two, 1023), math.Ldexp(1, 1023)},
		{"2^1024", repeatOffer(two, 1024), math.Inf(1)},
		{"zero after saturation", append(repeatOffer(two, 1100), countOffer(-1), two), 0},
		{"empty slice span after saturation", append(repeatOffer(two, 1100), countOffer(0, 3, -1)), 0},
		{"negative after saturation", append(repeatOffer(two, 1100), countOffer(-2, 4)), math.Inf(-1)},
		{"two negatives after saturation", append(repeatOffer(two, 1100), countOffer(-2), countOffer(0, -3)), math.Inf(1)},
		{"negative before saturation", append([]*flexoffer.FlexOffer{countOffer(-3)}, repeatOffer(two, 1100)...), math.Inf(-1)},
	}
	for _, c := range cases {
		got, err := m.SetValue(c.fs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameBits(got, c.want) {
			t.Errorf("%s: SetValue = %v, want %v", c.name, got, c.want)
		}
		if want, _ := oracleAssignmentsSet(c.fs); !sameBits(got, want) {
			t.Errorf("%s: SetValue = %v, oracle %v", c.name, got, want)
		}
	}
	if _, err := m.SetValue(nil); !errors.Is(err, core.ErrEmptySet) {
		t.Errorf("empty set: err = %v, want ErrEmptySet", err)
	}
}

// TestAssignmentsValueMatchesBig checks the uint64 fast path of Value
// against the big.Float conversion: counts around 2^53 where rounding
// to nearest even decides, counts that overflow uint64, zero and
// negative factors, and random DefaultMix offers.
func TestAssignmentsValueMatchesBig(t *testing.T) {
	m := core.AssignmentsMeasure{}
	offers := []*flexoffer.FlexOffer{
		countOffer(0),
		countOffer(-1, 5),
		countOffer(-2, 5),
		countOffer(3, -2, 7),
		countOffer(0, 1<<53),   // 2^53 + 1: halfway, rounds to even
		countOffer(0, 1<<53+2), // 2^53 + 3: halfway, rounds up
		countOffer(2, 1<<62-1), // 3 · 2^62 < 2^64
		countOffer(0, math.MaxInt64-1),
		countOffer(3, 1<<62),         // overflows uint64
		countOffer(1, 1<<40, 1<<40),  // overflows uint64
		countOffer(0, math.MaxInt64), // span+1 wraps negative in int64
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		spans := make([]int64, 1+rng.Intn(4))
		for j := range spans {
			spans[j] = rng.Int63n(1 << uint(1+rng.Intn(62)))
		}
		offers = append(offers, countOffer(rng.Intn(100), spans...))
	}
	fleet, err := workload.Population(rand.New(rand.NewSource(11)), 500, 2, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	offers = append(offers, fleet...)
	for i, f := range offers {
		got, err := m.Value(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleAssignmentsValue(f); !sameBits(got, want) {
			t.Fatalf("offer %d (%v): Value = %v, want %v", i, core.AssignmentFlexibility(f), got, want)
		}
	}
}
