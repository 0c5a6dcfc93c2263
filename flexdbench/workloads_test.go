package main

import (
	"bytes"
	"slices"
	"testing"
)

// named is a stream of n steps of the given cost that append their
// name to *log when run.
func named(log *[]string, name string, n int, cost float64) []step {
	return repeat(n, cost, func() error { *log = append(*log, name); return nil })
}

func TestMergeSpreadsStreamsByCost(t *testing.T) {
	var log []string
	// Four reboots of cost 10 among 16 rounds of cost 1: one reboot in
	// the middle of each quarter of the rounds.
	if err := runSteps(merge(named(&log, "r", 16, 1), named(&log, "B", 4, 10))); err != nil {
		t.Fatal(err)
	}
	want := "rrBrrrrBrrrrBrrrrBrr"
	if got := join(log); got != want {
		t.Fatalf("merged order %s, want %s", got, want)
	}

	// A zero-cost head goes first; each stream keeps its own order.
	log = nil
	var order []int
	a := []step{{0, func() error { log = append(log, "s"); return nil }}}
	for i := 0; i < 3; i++ {
		a = append(a, step{5, func() error { order = append(order, i); log = append(log, "a"); return nil }})
	}
	if err := runSteps(merge(named(&log, "b", 6, 1), a)); err != nil {
		t.Fatal(err)
	}
	if got := join(log); got != "sbabbabbab" {
		t.Fatalf("merged order %s, want sbabbabbab", got)
	}
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("stream order %v, want 0 1 2", order)
	}
	if len(merge()) != 0 || len(merge(nil, named(&log, "x", 2, 0))) != 2 {
		t.Fatal("empty or zero-cost streams lost steps")
	}
}

func join(s []string) string {
	out := ""
	for _, x := range s {
		out += x
	}
	return out
}

// The plan of every workload holds the configured work: each metric's
// request kinds, set-ups and reboots, whatever the interleaving.
func TestPlanCounts(t *testing.T) {
	cfg := defaultConfig(1, 30)
	for _, wl := range []string{wlIngest, wlChurn, wlAnalytics} {
		r := newLiveRun(cfg, "", t.TempDir())
		in := &inputs{}
		for i := 0; i < cfg.lifecycles[wl]; i++ {
			in.main = append(in.main, &fleetInput{batches: make([][]byte, 200)})
		}
		for i := 0; wl != wlAnalytics && i < cfg.probeLives; i++ {
			in.probe = append(in.probe, &fleetInput{})
		}
		steps := r.plan(wl, in)
		var cost float64
		for _, st := range steps {
			cost += st.cost
		}
		l := cfg.lifecycles[wl]
		boots := l
		if wl == wlIngest {
			boots = l * cfg.bootsOnly
		}
		want := float64(boots)*setUpCost[wl] + float64(l*split(cfg.rounds[wl], l))*roundCost[wl] +
			float64(l*cfg.reboots[wl])*rebootCost[wl]
		probe := float64(cfg.probeLives)*probeSetUpCost +
			float64(cfg.probeLives*split(cfg.probeRounds, cfg.probeLives))*probeCost[wl]
		switch wl {
		case wlIngest:
			want += float64(l*200)*ingestBatchCost + probe
		case wlChurn:
			want += probe
		case wlAnalytics:
			want += float64(l*split(cfg.probeRounds, l)) * probeCost[wl]
		}
		if cost != want {
			t.Errorf("%s: planned cost %.0f ms, want %.0f", wl, cost, want)
		}
		if cost < 0.75*30_000 || cost > 1.5*30_000 {
			t.Errorf("%s: a 30 s run plans %.1f s of work", wl, cost/1000)
		}
	}
}

// The same seed draws the same inputs; every lifecycle gets a fleet of
// its own.
func TestGenInputsBySeed(t *testing.T) {
	cfg := defaultConfig(3, 1)
	cfg.churnFleet, cfg.probeFleet, cfg.traceRounds = 1500, 1000, 2
	a, err := genInputs(cfg, wlChurn, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(cfg, wlChurn, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.main) != 3 || len(a.probe) != 2 {
		t.Fatalf("%d main and %d probe fleets, want 3 and 2", len(a.main), len(a.probe))
	}
	all := append(append([]*fleetInput{}, a.main...), a.probe...)
	again := append(append([]*fleetInput{}, b.main...), b.probe...)
	for i, f := range all {
		if !slices.EqualFunc(f.batches, again[i].batches, bytes.Equal) || !slices.EqualFunc(f.resub, again[i].resub, bytes.Equal) || f.level != again[i].level {
			t.Fatalf("fleet %d differs between two draws at one seed", i)
		}
		for _, g := range all[:i] {
			if bytes.Equal(f.batches[0], g.batches[0]) {
				t.Fatalf("fleet %d repeats an earlier fleet", i)
			}
		}
	}
	if a, err := genInputs(cfg, wlAnalytics, 2, 5); err != nil || len(a.probe) != 0 {
		t.Fatalf("fleet-analytics: %d probe fleets (%v), want none", len(a.probe), err)
	}
}
