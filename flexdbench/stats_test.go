package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s.add(time.Duration(i) * time.Millisecond)
	}
	p50, p90, err := p50p90(s)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 50 || p90 != 90 {
		t.Fatalf("p50, p90 = %v, %v; want 50, 90", p50, p90)
	}
}

func TestFailuresCountAsInfinity(t *testing.T) {
	var s samples
	for i := 1; i <= 90; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		s.fail()
	}
	if _, p90, _ := p50p90(s); p90 != 90 {
		t.Fatalf("10 failures in 100: p90 = %v, want 90 (the 90th sample)", p90)
	}
	s.fail()
	if _, p90, _ := p50p90(s); !math.IsInf(p90, 1) {
		t.Fatalf("11 failures in 101: p90 = %v, want +Inf", p90)
	}
	// Failures can only move a percentile up.
	var all samples
	for i := 0; i < 100; i++ {
		all.fail()
	}
	if p50, _, _ := p50p90(all); !math.IsInf(p50, 1) {
		t.Fatalf("all failed: p50 = %v, want +Inf", p50)
	}
}

func TestP90NeedsHundredSamples(t *testing.T) {
	s := make(samples, minSamples-1)
	if _, _, err := p50p90(s); err == nil {
		t.Fatalf("p90 from %d samples: want an error", len(s))
	}
	s = append(s, 1)
	if _, _, err := p50p90(s); err != nil {
		t.Fatalf("p90 from %d samples: %v", len(s), err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

// TestFailureCounting drives the live run's request path against a
// server that answers with every failure class: refusals (429, 503),
// server errors, malformed bodies and transport errors must each count
// as a failed attempt and a +Inf sample.
func TestFailureCounting(t *testing.T) {
	codes := []int{200, 429, 503, 500, 200}
	i := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := codes[i%len(codes)]
		i++
		w.WriteHeader(code)
		if code == 200 {
			w.Write([]byte(`{"ingested":1,"replaced":0,"stored":1}` + "\n"))
		}
	}))
	r := newLiveRun(defaultConfig(1, 1), "", t.TempDir())
	n := &node{p: &flexd{base: ts.URL}}
	body := []byte(`{}` + "\n")
	for range codes {
		r.post(n, kIngest, body, 1, 0, r.lat[kIngest])
		n.stored = 0 // every accepted batch reports stored=1
	}
	ts.Close()
	r.post(n, kIngest, body, 1, 0, r.lat[kIngest]) // transport error
	r.query(n, kMeasures, "GET", "/v1/measures", `{"names"`, 0, r.lat[kMeasures])

	if c := r.led[kIngest]; c.Attempted != 6 || c.Failed != 4 {
		t.Fatalf("ingest ledger = %+v, want 6 attempted, 4 failed", *c)
	}
	if c := r.led[kMeasures]; c.Attempted != 1 || c.Failed != 1 {
		t.Fatalf("measures ledger = %+v, want 1 attempted, 1 failed", *c)
	}
	inf := 0
	for _, v := range *r.lat[kIngest] {
		if math.IsInf(v, 1) {
			inf++
		}
	}
	if len(*r.lat[kIngest]) != 6 || inf != 4 {
		t.Fatalf("ingest samples: %d with %d +Inf, want 6 with 4", len(*r.lat[kIngest]), inf)
	}
	if a, f := r.led.totals(); a != 7 || f != 5 {
		t.Fatalf("totals = %d/%d, want 7/5", a, f)
	}
}
