package main

import (
	"fmt"
	"os"
	"time"

	"flexmeasures/internal/server"
)

// config sizes a run. defaultConfig is the benchmark; tests shrink it.
type config struct {
	seed    int64
	seconds int

	ingestFleet    int // fleet-ingest: new offers streamed into an empty flexd
	churnFleet     int // steady-churn: preloaded fleet
	analyticsFleet int // fleet-analytics: preloaded fleet
	probeFleet     int // fleet for the request kinds too slow on a big fleet
	churnK         int // resubmissions per steady-churn round
	analyticsK     int // resubmissions per fleet-analytics cycle (and probe cycle)

	rounds      map[string]int // main-loop rounds per run (fleet-ingest has none)
	probeRounds int            // probe cycles per run
	lifecycles  map[string]int // main flexd lifecycles per run
	probeLives  int            // probe flexd lifecycles per run
	reboots     map[string]int // timed restarts per lifecycle
	bootsOnly   int            // fleet-ingest: empty boots timed per lifecycle

	traceRounds     int    // replayed rounds (cycles) of the traced run
	breakdownRounds int    // traced cycles followed by the per-measure breakdown
	snapshotEvery   int    // WAL snapshot interval of the traced run (0: flexd's default)
	liveRef         bool   // traced run: measure live latencies for trace.coverage
	workDir         string // traced run: WAL directories and span dumps
}

// defaultConfig sizes a run from --seconds: the round counts are those
// a 2-CPU host gets through in 30 s, scaled, so a run measures for
// about --seconds (fleet-analytics a quarter longer; the lifecycles
// themselves do not scale), and never fewer rounds than a p90 needs. A
// run is a fixed amount of work rather than a deadline, so that the
// same seed sends the same requests in the same order however fast the
// host is.
func defaultConfig(seed int64, seconds int) config {
	per30s := func(n int) int { return max(minSamples, n*seconds/30) }
	return config{
		seed: seed, seconds: seconds,
		ingestFleet: 200_000, churnFleet: 50_000, analyticsFleet: 20_000, probeFleet: 4_000,
		churnK: 50, analyticsK: 20,
		rounds:      map[string]int{wlChurn: per30s(220), wlAnalytics: per30s(132)},
		probeRounds: per30s(264),
		lifecycles:  map[string]int{wlIngest: 3, wlChurn: 6, wlAnalytics: 8},
		probeLives:  8,
		reboots:     map[string]int{wlIngest: 4, wlChurn: 2, wlAnalytics: 2},
		bootsOnly:   3,
		traceRounds: 60, breakdownRounds: 3, liveRef: true, workDir: buildDir,
	}
}

// fsyncOf is each workload's WAL policy: fleet-ingest runs the
// durability contract (an acknowledged offer is on disk); the others
// run the interval policy a read-heavy deployment picks.
func fsyncOf(workload string) string {
	if workload == wlIngest {
		return "always"
	}
	return "interval"
}

// A run drives a main flexd through a few lifecycles — boot on a fresh
// data directory, set-up (the preload, and for steady-churn the cold
// schedule), the workload's main rounds with reboots on the same log
// spread among them — and, for the request kinds the main rounds do
// not exercise, probe cycles: on a second flexd holding a probe fleet
// of probeFleet offers where a call is too slow on the workload's own
// fleet (/v1/measures on 50k offers, a schedule on 200k), otherwise on
// the main flexd between its rounds. Every run thus reports every
// end-to-end metric.
//
// A shared host's speed drifts by tens of percent over seconds, so each
// metric's samples must not come from one window of the run: the main
// rounds, the reboots and the probe cycles are interleaved (merge), so
// every request kind is sampled evenly over the whole run and each
// median sees the same mix of fast and slow stretches.

// fleetInput is one fleet as a run sends it: its NDJSON batches, the
// schedule target fixed at set-up, and resubmission bodies, consumed in
// order.
type fleetInput struct {
	batches [][]byte
	level   int64
	resub   [][]byte
	next    int
}

// take returns the next resubmission body, starting over at the end.
func (f *fleetInput) take() []byte {
	b := f.resub[f.next%len(f.resub)]
	f.next++
	return b
}

// inputs is everything a run sends, generated before flexd starts: a
// fleet of its own for each main lifecycle and each probe lifecycle.
// Measure and schedule costs differ by a tenth and more from one drawn
// fleet to the next, so a run averages over several draws rather than
// hang on one.
type inputs struct {
	main  []*fleetInput
	probe []*fleetInput // none for fleet-analytics: its schedule cycles run on its own fleets
}

// maxLives bounds the lifecycles of each kind a run can have: fleets
// are drawn from sub-seeds seed*2*maxLives + i, main i < maxLives,
// probe i ≥ maxLives, so no two fleets of any two runs share a seed.
const maxLives = 32

// resubSalt decouples a fleet's resubmissions from the fleet itself.
const resubSalt = 0x52455355

// genInputs draws the fleets of a run with the given numbers of main
// and probe lifecycles.
func genInputs(cfg config, wl string, lives, probeLives int) (*inputs, error) {
	if lives < 1 || lives > maxLives || probeLives > maxLives {
		return nil, fmt.Errorf("lifecycles %d and %d: want 1..%d", lives, probeLives, maxLives)
	}
	n, k := cfg.churnFleet, cfg.churnK
	switch wl {
	case wlIngest:
		n = cfg.ingestFleet
	case wlAnalytics:
		n, k = cfg.analyticsFleet, cfg.analyticsK
	}
	count := split(cfg.rounds[wl], lives)
	if wl == wlAnalytics {
		count += split(cfg.probeRounds, lives)
		probeLives = 0
	}
	in := &inputs{}
	for i := 0; i < lives; i++ {
		f, err := genFleetInput(cfg.seed*2*maxLives+int64(i), n, k, count)
		if err != nil {
			return nil, err
		}
		in.main = append(in.main, f)
	}
	pcount := split(cfg.probeRounds, max(probeLives, 1))
	for i := 0; i < probeLives; i++ {
		f, err := genFleetInput(cfg.seed*2*maxLives+maxLives+int64(i), cfg.probeFleet, cfg.analyticsK, pcount)
		if err != nil {
			return nil, err
		}
		in.probe = append(in.probe, f)
	}
	return in, nil
}

// genFleetInput draws an n-offer fleet and count resubmissions of k of
// its offers each; the offers themselves are not kept.
func genFleetInput(seed int64, n, k, count int) (*fleetInput, error) {
	fl, err := genFleet(seed, n)
	if err != nil {
		return nil, err
	}
	resub, err := newResubmitter(seed^resubSalt, fl).batches(count, k, n)
	if err != nil {
		return nil, err
	}
	return &fleetInput{batches: fl.batches, level: server.FlatTargetLevel(fl.offers, horizon, -1), resub: resub}, nil
}

// step is one piece of a run that must not be split: a request, a
// round of requests, a set-up or a reboot. cost is the time it is
// expected to take, in milliseconds on a 2-CPU host; it only decides
// where merge puts the step, so an estimate off by a factor of two
// merely spreads a stream a little less evenly.
type step struct {
	cost float64
	run  func() error
}

// merge interleaves streams of steps into one, keeping each stream's
// order: it takes next the step of the stream least far along by
// expected cost, measured at the step's midpoint, so each stream's
// steps spread evenly over the merged stream. Steps of cost 0 at a
// stream's head come first. The order depends only on the costs, so it
// is the same on every host.
func merge(streams ...[]step) []step {
	var out []step
	total := make([]float64, len(streams))
	done := make([]float64, len(streams))
	next := make([]int, len(streams))
	for i, s := range streams {
		for _, st := range s {
			total[i] += st.cost
		}
	}
	for {
		best, bestAt := -1, 0.0
		for i, s := range streams {
			if next[i] == len(s) {
				continue
			}
			at := 0.0
			if total[i] > 0 {
				at = (done[i] + s[next[i]].cost/2) / total[i]
			}
			if best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best < 0 {
			return out
		}
		st := streams[best][next[best]]
		out = append(out, st)
		next[best]++
		done[best] += st.cost
	}
}

// runSteps runs steps in order, stopping at the first error.
func runSteps(steps []step) error {
	for _, st := range steps {
		if err := st.run(); err != nil {
			return err
		}
	}
	return nil
}

// repeat is n copies of a step.
func repeat(n int, cost float64, fn func() error) []step {
	out := make([]step, n)
	for i := range out {
		out[i] = step{cost, fn}
	}
	return out
}

// Expected step costs in milliseconds (see step).
var (
	setUpCost  = map[string]float64{wlIngest: 10, wlChurn: 800, wlAnalytics: 300}
	roundCost  = map[string]float64{wlChurn: 65, wlAnalytics: 170}
	rebootCost = map[string]float64{wlIngest: 800, wlChurn: 300, wlAnalytics: 120}
	probeCost  = map[string]float64{wlIngest: 45, wlChurn: 32, wlAnalytics: 27}
)

const (
	ingestBatchCost = 15
	probeSetUpCost  = 100
)

// plan builds the whole run of a workload: the main flexd's lifecycles
// merged with the probe cycles.
func (r *liveRun) plan(wl string, in *inputs) []step {
	m := r.newNode(fsyncOf(wl), true)
	lifecycles := len(in.main)
	rounds := split(r.cfg.rounds[wl], lifecycles)
	var main []step
	for _, f := range in.main {
		main = append(main, r.setUp(wl, m, f)...)
		if wl == wlIngest {
			for _, b := range f.batches {
				main = append(main, step{ingestBatchCost, func() error {
					r.post(m, kIngest, b, countLines(b), 0, r.lat[kIngest])
					return nil
				}})
			}
		}
		body := repeat(rounds, roundCost[wl], func() error { r.round(wl, m, f); return nil })
		if wl == wlAnalytics {
			// The schedule cycles run on this fleet, between the rounds,
			// after one untimed cold schedule.
			cycles := append([]step{{0, func() error { r.schedule(m, f.level, nil); return nil }}},
				repeat(split(r.cfg.probeRounds, lifecycles), probeCost[wl], func() error {
					r.probeCycle(m, f, r.lat[kResubmit], func() { r.schedule(m, f.level, r.lat[kSchedule]) })
					return nil
				})...)
			body = merge(body, cycles)
		}
		reboots := repeat(r.cfg.reboots[wl], rebootCost[wl], func() error { return r.reboot(wl, m, f) })
		main = append(main, merge(body, reboots)...)
		main = append(main, step{0, func() error { return r.stop(m) }})
	}
	if len(in.probe) == 0 {
		return main
	}
	// The probe flexd restarts on each probe fleet, so neither one draw
	// nor one process's memory layout sets the probe figures.
	p := r.newNode("interval", false)
	var probe []step
	var resub *samples
	if wl == wlIngest {
		resub = r.lat[kResubmit]
	}
	for _, f := range in.probe {
		probe = append(probe, step{probeSetUpCost, func() error { return r.probeSetUp(wl, p, f) }})
		probe = append(probe, repeat(split(r.cfg.probeRounds, len(in.probe)), probeCost[wl], func() error {
			r.probeCycle(p, f, resub, func() {
				if wl == wlIngest {
					r.schedule(p, f.level, r.lat[kSchedule])
				}
				r.measures(p, r.lat[kMeasures])
				r.aggregate(p, r.lat[kAggregate])
			})
			return nil
		})...)
	}
	probe = append(probe, step{0, func() error { return r.stop(p) }})
	return merge(main, probe)
}

// split is each of n parts' share of total, rounded up.
func split(total, n int) int { return (total + n - 1) / n }

// setUp boots a fresh main flexd and brings it to the state the timed
// requests start from, recording the exec-to-ready time:
//
//   - fleet-ingest: an empty flexd, booted bootsOnly times (only the
//     boot is set-up: the fleet then streams in as timed ingest);
//   - steady-churn: the fleet preloaded, each batch a timed ingest
//     sample, and one cold schedule;
//   - fleet-analytics: the fleet preloaded, likewise.
func (r *liveRun) setUp(wl string, m *node, f *fleetInput) []step {
	boots := 1
	if wl == wlIngest {
		boots = r.cfg.bootsOnly
	}
	return repeat(boots, setUpCost[wl], func() error {
		if err := r.bootFresh(m); err != nil {
			return err
		}
		switch wl {
		case wlChurn:
			r.preload(m, f.batches, true)
			r.schedule(m, f.level, nil)
		case wlAnalytics:
			r.preload(m, f.batches, true)
		}
		r.setup = append(r.setup, time.Since(m.p.start).Seconds())
		return nil
	})
}

// round is one main-loop round (fleet-ingest's main phase is the
// streaming ingest and has none):
//
//   - steady-churn: a resubmission of 0.1% of the fleet, then a schedule
//     with the target fixed at set-up;
//   - fleet-analytics: a resubmission of 20 offers, then the measures and
//     the aggregates.
func (r *liveRun) round(wl string, m *node, f *fleetInput) {
	k := r.cfg.churnK
	if wl == wlAnalytics {
		k = r.cfg.analyticsK
	}
	r.post(m, kResubmit, f.take(), k, k, r.lat[kResubmit])
	switch wl {
	case wlChurn:
		r.schedule(m, f.level, r.lat[kSchedule])
	case wlAnalytics:
		r.measures(m, r.lat[kMeasures])
		r.aggregate(m, r.lat[kAggregate])
	}
}

// reboot stops the main flexd and boots it again on the same log,
// recording the exec-to-healthy time; where the main rounds time
// schedules, an untimed schedule then refills the incremental cache
// the restart emptied, as set-up does.
func (r *liveRun) reboot(wl string, m *node, f *fleetInput) error {
	if err := r.stop(m); err != nil {
		return err
	}
	d, err := r.boot(m)
	if err != nil {
		return err
	}
	r.restart = append(r.restart, d.Seconds())
	if wl != wlIngest {
		r.schedule(m, f.level, nil)
	}
	return nil
}

// probeSetUp boots the probe flexd holding only a probe fleet — a
// flexd of its own, so the probes never pay for the big fleet's garbage
// being collected and its memory returned.
func (r *liveRun) probeSetUp(wl string, p *node, f *fleetInput) error {
	if err := r.bootFresh(p); err != nil {
		return err
	}
	r.preload(p, f.batches, false)
	if wl == wlIngest {
		r.schedule(p, f.level, nil)
	}
	return nil
}

// probeCycle is a resubmission (so no answer can come whole from a
// cache) followed by the timed queries. The resubmission is timed into
// s where the main rounds time none of their own (fleet-ingest) or
// resubmit the same way (fleet-analytics' schedule cycles resubmit 20
// of its offers, as its rounds do).
func (r *liveRun) probeCycle(n *node, f *fleetInput, s *samples, queries func()) {
	k := r.cfg.analyticsK
	r.post(n, kResubmit, f.take(), k, k, s)
	queries()
}

// bootFresh starts a flexd on a new, empty data directory.
func (r *liveRun) bootFresh(n *node) error {
	if n.p != nil {
		if err := r.stop(n); err != nil {
			return err
		}
	}
	if n.dir != "" {
		_ = os.RemoveAll(n.dir)
	}
	n.dir = r.freshDir()
	n.stored, n.ops = 0, nil
	_, err := r.boot(n)
	return err
}

func (r *liveRun) preload(n *node, bodies [][]byte, timed bool) {
	var s *samples
	if timed {
		s = r.lat[kIngest]
	}
	for _, b := range bodies {
		r.post(n, kIngest, b, countLines(b), 0, s)
	}
}

func countLines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}

// runWorkload runs a workload's plan.
func (r *liveRun) runWorkload(wl string, in *inputs) error {
	c := readCPUClock()
	err := runSteps(r.plan(wl, in))
	r.steal = c.stealPct()
	return err
}

// reference runs one set-up and n rounds of the main phase, untraced:
// the live latencies the traced run's coverage is measured against.
func (r *liveRun) reference(wl string, in *inputs, n int) error {
	r.cfg.bootsOnly = 1
	m := r.newNode(fsyncOf(wl), true)
	f := in.main[0]
	steps := r.setUp(wl, m, f)
	if wl == wlIngest {
		steps = append(steps, step{0, func() error { r.preload(m, f.batches, true); return nil }})
	} else {
		steps = append(steps, repeat(n, 0, func() error { r.round(wl, m, f); return nil })...)
	}
	return runSteps(append(steps, step{0, func() error { return r.stop(m) }}))
}
