package main

import (
	"net/http/httptest"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/server"
)

// TestOracleMatchesServer drives an in-process flexd handler (sharded,
// incremental, as deployed) with a small fleet and a resubmission, and
// checks the oracle reproduces its schedule, measures and aggregate
// bodies byte for byte — and that the gate rejects a one-byte change.
func TestOracleMatchesServer(t *testing.T) {
	fl, err := genFleet(7, 2500)
	if err != nil {
		t.Fatal(err)
	}
	se := flex.NewSharded(2, flex.WithSafe(true), flex.WithIncremental(true))
	defer se.Close()
	ts := httptest.NewServer(server.NewSharded(se, server.Options{}))
	defer ts.Close()

	r := newLiveRun(defaultConfig(7, 1), "", t.TempDir())
	n := &node{p: &flexd{base: ts.URL}}
	level := server.FlatTargetLevel(fl.offers, horizon, -1)
	r.preload(n, fl.batches, true)
	r.schedule(n, level, nil) // cold: fills the incremental cache
	resub, err := newResubmitter(8, fl).batches(2, 25, len(fl.offers))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range resub {
		r.post(n, kResubmit, b, 25, 25, nil)
		r.schedule(n, level, nil)
	}
	r.measures(n, nil)
	r.aggregate(n, nil)
	if err := r.verify(); err != nil {
		t.Fatal(err)
	}
	if len(r.errs) > 0 {
		t.Fatalf("gate failed on an honest server: %v", r.errs)
	}

	// One flipped byte anywhere in a checked body must fail the gate.
	for _, k := range []string{kSchedule, kMeasures, kAggregate} {
		body := r.checks[k].body
		for _, at := range []int{0, len(body) / 2, len(body) - 2} {
			r.errs = nil
			saved := body[at]
			body[at] ^= 0x01
			if err := r.verify(); err != nil {
				t.Fatal(err)
			}
			body[at] = saved
			if len(r.errs) != 1 {
				t.Fatalf("%s: flipping byte %d of %d gave %d gate errors, want 1", k, at, len(body), len(r.errs))
			}
		}
	}
}

func TestSameBody(t *testing.T) {
	if err := sameBody("x", []byte("abc\n"), []byte("abc\n")); err != nil {
		t.Fatal(err)
	}
	for _, got := range []string{"abd\n", "abc", "abc\n\n", ""} {
		if err := sameBody("x", []byte(got), []byte("abc\n")); err == nil {
			t.Fatalf("%q accepted as %q", got, "abc\n")
		}
	}
}
