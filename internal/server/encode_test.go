package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	flex "flexmeasures"
)

// measuresFloatEdges are the values where encoding/json's float format
// changes shape: non-finite (null), signed zero, subnormals, the 1e-6
// and 1e21 'f'/'e' switch points on both sides, the extremes, and the
// integers on both sides of the 2^53 integer fast path.
var measuresFloatEdges = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
	1e-7, 9.99e-7, 1e-6, math.Nextafter(1e-6, 0), -1e-7, 1.5e-10, 1e-100,
	1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 123456789e13, 1e300,
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 1.0 / 3, 2.5, 1 << 53, 1<<53 + 2,
	12345.678, 60, 17, -3.75, 1<<53 - 1, -(1<<53 - 1), 1<<52 + 1, 1e15, 1e15 + 1,
	999999999999999, 123456789012345, -7,
}

// randomMeasureFloat draws an edge value, a random bit pattern (any
// exponent, NaN payloads included) or a measure-like value.
func randomMeasureFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return measuresFloatEdges[rng.Intn(len(measuresFloatEdges))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	case 2:
		return float64(rng.Int63n(1<<uint(rng.Intn(62)+1))) / float64(int64(1)<<uint(rng.Intn(20)))
	default:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	}
}

// oracleMeasuresBytes is what EncodeResponse wrote for a measures
// response before the append encoder: reflective json.Marshal, which
// calls JSONFloat.MarshalJSON per cell.
func oracleMeasuresBytes(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestEncodeMeasuresMatchesMarshal is the encoder's parity property:
// for random tables — ragged rows, empty tables, nil and non-nil empty
// slices, every float edge and random bit patterns — EncodeResponse
// writes exactly json.Marshal's bytes.
func TestEncodeMeasuresMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	names := []string{"time", "energy", "product", "vector_l1", "series_aligned_l1",
		"assignments", "absolute_area", "relative_area", `quote"<&>`, "ünïcode"}
	tables := []*flex.MeasureTable{
		{},
		{Names: []string{}, Values: [][]float64{}, Set: []float64{}},
		{Names: names[:1], Values: [][]float64{nil, {}}, Set: []float64{math.NaN()}},
		{Names: names[:2], Values: [][]float64{measuresFloatEdges}, Set: measuresFloatEdges},
	}
	for i := 0; i < 300; i++ {
		k := rng.Intn(len(names) + 1)
		tab := &flex.MeasureTable{Names: names[:k], Set: make([]float64, k)}
		for j := range tab.Set {
			tab.Set[j] = randomMeasureFloat(rng)
		}
		tab.Values = make([][]float64, rng.Intn(40))
		for r := range tab.Values {
			row := make([]float64, k+rng.Intn(2))
			for j := range row {
				row[j] = randomMeasureFloat(rng)
			}
			tab.Values[r] = row
		}
		tables = append(tables, tab)
	}
	for i, tab := range tables {
		resp := BuildMeasuresResponse(tab)
		var got bytes.Buffer
		if err := EncodeResponse(&got, resp); err != nil {
			t.Fatal(err)
		}
		if want := oracleMeasuresBytes(t, resp); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("table %d:\n got %s\nwant %s", i, got.Bytes(), want)
		}
	}
	// Responses built by hand may hold nil slices anywhere, and may be
	// passed by value.
	for _, resp := range []MeasuresResponse{
		{},
		{Names: []string{"time"}, Values: [][]JSONFloat{nil, {1, JSONFloat(math.Inf(1))}}},
	} {
		var got bytes.Buffer
		if err := EncodeResponse(&got, resp); err != nil {
			t.Fatal(err)
		}
		if want := oracleMeasuresBytes(t, resp); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("hand-built response:\n got %s\nwant %s", got.Bytes(), want)
		}
	}
}

// TestEncodeIntegralFloats checks appendFloat's integer path, which
// random bit patterns seldom reach: integral values of every magnitude
// up to 2^60, both signs, and the neighbours of 2^53 and of powers of
// ten.
func TestEncodeIntegralFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var vs []float64
	for e := 0; e <= 60; e++ {
		for i := 0; i < 500; i++ {
			vs = append(vs, float64(rng.Int63n(int64(1)<<uint(e)+1)))
		}
	}
	for p := 1.0; p < 1e19; p *= 10 {
		vs = append(vs, p-1, p, p+1, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	for d := -4.0; d <= 4; d++ {
		vs = append(vs, 1<<53+d, 1<<52+d)
	}
	for _, v := range vs {
		for _, v := range []float64{v, -v} {
			want, err := json.Marshal(JSONFloat(v))
			if err != nil {
				t.Fatal(err)
			}
			if got := appendFloat(nil, v); !bytes.Equal(got, want) {
				t.Fatalf("%v: appendFloat = %s, json.Marshal = %s", v, got, want)
			}
		}
	}
}

// FuzzMeasuresFloat checks every float64 bit pattern the fuzzer finds
// against JSONFloat's reflective encoding.
func FuzzMeasuresFloat(f *testing.F) {
	for _, v := range measuresFloatEdges {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, err := json.Marshal(JSONFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("%#016x: appendFloat = %s, json.Marshal = %s", bits, got, want)
		}
	})
}
