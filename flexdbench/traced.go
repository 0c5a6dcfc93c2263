package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	flex "flexmeasures"
	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/core"
	"flexmeasures/internal/flexoffer"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/inc"
	"flexmeasures/internal/ingest"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/server"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
)

// The traced run replays a workload's requests in process, calling
// each layer's public functions in the order flexd's handlers do and
// recording a span around every call, from the outside in. It replays
// the request mix of one live lifecycle: the main phase on the first
// main fleet (traceRounds rounds), the reboots (WAL reopens), and the
// probe phase on the first probe fleet — so every workload reaches
// every layer. Work that flexd's request path does not do — the full
// placement the incremental replay avoids, the per-measure breakdown,
// WAL reopening — is recorded as side spans outside any request.
// Set-up (preloads, cold schedules) runs unrecorded. Spans stay in
// memory and are written out at the end.

// traced holds the layers one replay drives.
type traced struct {
	cfg config
	tr  *tracer
	// se wraps shards as flexd's engine does: shard 0's pool decodes,
	// each shard's pool sorts its part, both serve the measure rows.
	se     *flex.ShardedEngine
	shards []*flex.Engine
	// store serves the reads; during the main phase every batch also
	// goes to wal, so the shard and persist layers are timed apart.
	store *shard.Stores
	wal   *persist.WALStore
	fs    *countingFS
	ctx   context.Context

	walBytes, walOffers int64 // log bytes and offers of traced requests
	incHits, incMisses  int64 // aggregate-cache lookups of traced schedules
	incFull             int64 // traced schedules that placed every group
	measured            int   // traced measures requests so far

	last map[string]*answer // the last body of each query kind
	errs []error
	led  ledger
}

// answer is a query's body and the store state and target it answered.
type answer struct {
	body  []byte
	parts [][]shard.Entry
	level int64
}

// request replays one request; it counts as failed if it recorded an
// error.
func (t *traced) request(kind string, fn func()) {
	n := len(t.errs)
	t.tr.request(kind, fn)
	t.led.note(kind, len(t.errs) == n)
}

func runTraced(cfg config, wl string) (*result, *report, error) {
	t := &traced{
		cfg:    cfg,
		tr:     newTracer(),
		shards: []*flex.Engine{flex.New(flex.WithSafe(true)), flex.New(flex.WithSafe(true))},
		store:  shard.NewStores(shard.Router{Shards: 2}),
		ctx:    context.Background(),
		last:   map[string]*answer{},
		led:    ledger{},
	}
	t.se = flex.NewShardedFrom(t.shards...)
	defer t.se.Close()
	in, err := genInputs(cfg, wl, 1, 1)
	if err != nil {
		return nil, nil, err
	}
	var ref map[string]float64
	if cfg.liveRef {
		if ref, err = t.liveReference(wl, in); err != nil {
			return nil, nil, err
		}
	}
	dir := filepath.Join(cfg.workDir, "runs", fmt.Sprintf("trace-%s-seed%d-%d", wl, cfg.seed, os.Getpid()))
	defer os.RemoveAll(dir)
	if err := t.replay(wl, in, dir); err != nil {
		return nil, nil, err
	}
	if err := t.verify(); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "traces"), 0o755); err != nil {
		return nil, nil, err
	}
	if err := t.tr.write(filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.json", wl, cfg.seed))); err != nil {
		return nil, nil, err
	}
	res, rep := t.result(ref)
	return res, rep, nil
}

// liveReference runs the workload's main phase against live flexd,
// untraced, for traceRounds rounds and returns the median latency per
// request kind — the denominator of trace.coverage.
func (t *traced) liveReference(wl string, in *inputs) (map[string]float64, error) {
	bin, err := buildFlexd(".", buildDir)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(buildDir, "runs", fmt.Sprintf("ref-%s-seed%d-%d", wl, t.cfg.seed, os.Getpid()))
	_ = os.RemoveAll(runDir)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	r := newLiveRun(t.cfg, bin, runDir)
	defer r.cleanup()
	if err := r.reference(wl, in, t.cfg.traceRounds); err != nil {
		return nil, err
	}
	for k, c := range r.led {
		t.led[k+"_live"] = c
	}
	t.errs = append(t.errs, r.errs...)
	ref := map[string]float64{}
	for k, s := range r.lat {
		if len(*s) > 0 {
			ref[k] = median(*s)
		}
	}
	return ref, nil
}

// replay runs one lifecycle's request mix: the main phase through the
// WAL, its reboots, then the probe phase.
func (t *traced) replay(wl string, in *inputs, dir string) error {
	if err := t.openWAL(dir, wl); err != nil {
		return err
	}
	probeCycles := max(t.cfg.traceRounds/3, 1)
	m := in.main[0]
	switch wl {
	case wlIngest:
		for _, body := range m.batches {
			t.request(kIngest, func() {
				if _, replaced := t.decodeAdd(body); replaced != 0 {
					t.failf("ingest: replaced %d, want 0", replaced)
				}
			})
		}
	case wlChurn:
		t.preload(m.batches)
		st := inc.NewState()
		t.scheduleReq(st, m.level, false) // the cold run of set-up
		for i := 0; i < t.cfg.traceRounds; i++ {
			t.resubmit(m.take(), t.cfg.churnK)
			t.scheduleReq(st, m.level, true)
		}
	case wlAnalytics:
		t.preload(m.batches)
		for i := 0; i < t.cfg.traceRounds; i++ {
			t.resubmit(m.take(), t.cfg.analyticsK)
			t.measuresReq()
			t.aggregateReq()
		}
	}
	if err := t.reboots(dir, t.cfg.reboots[wl]); err != nil {
		return err
	}
	switch wl {
	case wlIngest:
		t.probe(in.probe[0], probeCycles, true)
	case wlChurn:
		t.probe(in.probe[0], probeCycles, false)
	case wlAnalytics:
		st := inc.NewState()
		t.scheduleReq(st, m.level, false)
		for i := 0; i < probeCycles; i++ {
			t.resubmit(m.take(), t.cfg.analyticsK)
			t.scheduleReq(st, m.level, true)
		}
	}
	return nil
}

// openWAL opens the workload's write-ahead log behind a counting
// filesystem, with the fsync policy its flexd runs.
func (t *traced) openWAL(dir, wl string) error {
	t.fs = newCountingFS(persist.OS())
	policy := persist.FsyncInterval
	if fsyncOf(wl) == "always" {
		policy = persist.FsyncAlways
	}
	w, err := persist.OpenWAL(t.walOptions(dir, policy))
	t.wal = w
	return err
}

func (t *traced) walOptions(dir string, policy persist.FsyncPolicy) persist.Options {
	return persist.Options{
		Dir: dir, Router: shard.Router{Shards: 2}, FS: t.fs,
		Fsync: policy, Executor: t.se.Executor(),
		SnapshotEvery: t.cfg.snapshotEvery,
		// flexd writes snapshots in the background, where one still
		// running when the next is due makes the count depend on timing;
		// written in line, the file layout and every count repeat exactly.
		SyncSnapshots: true,
	}
}

// reboots closes the WAL, records what it wrote, and reopens it n
// times, checking each replay restores the store.
func (t *traced) reboots(dir string, n int) error {
	if err := t.wal.Close(); err != nil {
		return err
	}
	t.wal = nil
	st := t.fs.stats()
	t.tr.count("persist.fsyncs", float64(st.syncs))
	t.tr.count("persist.snapshots", float64(st.snapshots))
	if t.walOffers > 0 {
		t.tr.count("persist.bytes_per_offer", float64(t.walBytes)/float64(t.walOffers))
	}
	for _, ms := range t.fs.syncTimes() {
		t.tr.count("persist.fsync_ms", ms)
	}
	opts := t.walOptions(dir, persist.FsyncOff)
	opts.FS = nil
	for i := 0; i < n; i++ {
		var w *persist.WALStore
		var err error
		t.tr.span("persist.replay", func() { w, err = persist.OpenWAL(opts) })
		if err != nil {
			return err
		}
		rs := w.Stats()
		t.tr.count("persist.replay_records", float64(rs.SnapshotRecords+rs.Records))
		if w.Len() != t.store.Len() {
			t.failf("replay restored %d offers, want %d", w.Len(), t.store.Len())
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// probe replays the probe phase on a fresh store holding a probe
// fleet: a resubmission, then (optionally) a schedule, the measures
// and the aggregates, per cycle.
func (t *traced) probe(f *fleetInput, cycles int, withSchedule bool) {
	t.store = shard.NewStores(shard.Router{Shards: 2})
	t.preload(f.batches)
	st := inc.NewState()
	if withSchedule {
		t.scheduleReq(st, f.level, false)
	}
	for i := 0; i < cycles; i++ {
		t.resubmit(f.take(), t.cfg.analyticsK)
		if withSchedule {
			t.scheduleReq(st, f.level, true)
		}
		t.measuresReq()
		t.aggregateReq()
	}
}

func (t *traced) failf(format string, args ...any) {
	t.errs = append(t.errs, fmt.Errorf(format, args...))
}

// decodeAdd is the ingest request path: sharded NDJSON decode, the
// store merge, and — during the main phase — the WAL append. It
// reports the decoded offers and the replacements.
func (t *traced) decodeAdd(body []byte) ([]*flexoffer.FlexOffer, int) {
	var offers []*flexoffer.FlexOffer
	var err error
	t.tr.span("ingest.decode", func() {
		offers, err = ingest.DecodeNDJSON(t.ctx, bytes.NewReader(body), ingest.Params{Pool: t.se.Executor()})
	})
	if err != nil {
		t.failf("decode: %v", err)
		return nil, 0
	}
	var muts []shard.Mutation
	t.tr.span("shard.add", func() { muts, _ = t.store.Add(offers) })
	replaced, _ := shard.Summarize(muts, 2)
	if t.wal != nil {
		before := t.fs.stats()
		t.tr.span("persist.add", func() {
			if _, _, err := t.wal.Add(t.ctx, offers); err != nil {
				t.failf("wal add: %v", err)
			}
		})
		d := t.fs.stats().sub(before)
		if !t.tr.muted {
			t.tr.count("persist.append_ms", d.logWriteMS)
			t.walBytes += d.logBytes
			t.walOffers += int64(len(offers))
		}
	}
	return offers, replaced
}

// preload loads set-up batches unrecorded.
func (t *traced) preload(bodies [][]byte) {
	t.tr.muted = true
	defer func() { t.tr.muted = false }()
	for _, b := range bodies {
		t.decodeAdd(b)
	}
}

// resubmit replays one resubmission request and checks every record
// replaced a stored offer.
func (t *traced) resubmit(body []byte, k int) {
	t.request(kResubmit, func() {
		if _, rep := t.decodeAdd(body); rep != k {
			t.failf("resubmit: replaced %d, want %d", rep, k)
		}
	})
}

// group is the scatter-gather grouping stage: per-shard stable sorts,
// the k-way merge, then the EST-gap cuts and greedy packs.
func (t *traced) group(parts [][]shard.Entry) [][]*flexoffer.FlexOffer {
	runs := make([]shard.Run, len(parts))
	t.tr.span("grouping.sort", func() {
		// Like flexd, each shard sorts concurrently on its own pool.
		var wg sync.WaitGroup
		for k, part := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[k] = sortRun(part, t.shards[k].Executor())
			}()
		}
		wg.Wait()
	})
	var merged shard.Run
	t.tr.span("shard.merge", func() { merged = shard.MergeRuns(runs) })
	var groups [][]*flexoffer.FlexOffer
	t.tr.span("grouping.pack", func() {
		lo := 0
		for _, hi := range grouping.Cuts(merged.ESTs, gp.ESTTolerance) {
			groups = append(groups, grouping.Pack(merged.Offers[lo:hi], merged.TFs[lo:hi], gp)...)
			lo = hi
		}
	})
	t.tr.count("grouping.groups", float64(len(groups)))
	return groups
}

// sortRun stable-sorts one shard's entries into its grouping run.
func sortRun(part []shard.Entry, ex flex.Executor) shard.Run {
	offers := make([]*flexoffer.FlexOffer, len(part))
	for i, e := range part {
		offers[i] = e.Offer
	}
	perm, ests, tfs := grouping.SortRun(offers, ex, 0)
	run := shard.Run{
		Offers: make([]*flexoffer.FlexOffer, len(part)),
		Seqs:   make([]uint64, len(part)),
		ESTs:   make([]int, len(part)),
		TFs:    make([]int, len(part)),
	}
	for i, pi := range perm {
		run.Offers[i], run.Seqs[i] = offers[pi], part[pi].Seq
		run.ESTs[i], run.TFs[i] = ests[pi], tfs[pi]
	}
	return run
}

// scheduleReq replays one /v1/schedule: grouping, the incremental run
// with its aggregate and disaggregate callbacks, and the streamed
// response encode. A timed call also records the incremental counts
// and, outside the request, the full placement of the same aggregates;
// an untimed one (set-up's cold run) records nothing.
func (t *traced) scheduleReq(st *inc.State, level int64, timed bool) {
	target := timeseries.Constant(0, horizon, level)
	var out bytes.Buffer
	var res *inc.Result
	parts := t.store.Snapshot()
	before := st.Stats()
	replay := func() {
		groups := t.group(parts)
		var err error
		t.tr.span("inc.run", func() {
			res, err = st.Run(t.ctx, groups, target, inc.Config{Safe: true},
				func(ctx context.Context, gs [][]*flexoffer.FlexOffer) (ags []*aggregate.Aggregated, err error) {
					t.tr.span("aggregate.aggregate", func() { ags, err = t.shards[0].AggregateGroups(ctx, gs) })
					return ags, err
				},
				func(ctx context.Context, ags []*aggregate.Aggregated, asgs []flexoffer.Assignment) (parts [][]flexoffer.Assignment, err error) {
					t.tr.span("aggregate.disaggregate", func() { parts, err = t.shards[0].Disaggregate(ctx, ags, asgs) })
					return parts, err
				})
		})
		if err != nil {
			t.failf("schedule: %v", err)
			return
		}
		t.tr.span("server.encode_schedule", func() {
			pr := &flex.PipelineResult{
				Aggregates:        res.Aggregates,
				AggregateSchedule: &sched.Result{Assignments: res.Assignments, Load: res.Load},
				Disaggregated:     res.Disaggregated,
				Load:              res.Load,
			}
			_ = server.StreamScheduleResponse(&out, server.BuildScheduleResponse(total(parts), pr, target, horizon, level))
		})
	}
	if !timed {
		t.tr.muted = true
		replay()
		t.tr.muted = false
		return
	}
	t.request(kSchedule, replay)
	if res == nil {
		return
	}
	t.last[kSchedule] = &answer{out.Bytes(), parts, level}
	s := st.Stats()
	t.incHits += s.Hits - before.Hits
	t.incMisses += s.Misses - before.Misses
	t.incFull += s.FullRuns - before.FullRuns
	t.tr.count("server.schedule_bytes", float64(out.Len()))
	t.tr.count("inc.dirty_groups", float64(s.LastDirty))
	t.tr.count("inc.reused_placements", float64(s.LastReused))
	offers := make([]*flexoffer.FlexOffer, len(res.Aggregates))
	for i, ag := range res.Aggregates {
		offers[i] = ag.Offer
	}
	t.tr.span("sched.place", func() {
		if _, err := sched.Schedule(offers, target, sched.Options{}); err != nil {
			t.failf("full placement: %v", err)
		}
	})
}

// measuresReq replays one /v1/measures; the first breakdownRounds are
// followed by the per-measure breakdown.
func (t *traced) measuresReq() {
	var out bytes.Buffer
	parts := t.store.Snapshot()
	t.request(kMeasures, func() {
		var tab *flex.MeasureTable
		var err error
		t.tr.span("core.measures", func() { tab, err = t.se.MeasuresRouted(t.ctx, parts) })
		if err != nil {
			t.failf("measures: %v", err)
			return
		}
		t.tr.span("server.encode_measures", func() { _ = server.EncodeResponse(&out, server.BuildMeasuresResponse(tab)) })
	})
	t.last[kMeasures] = &answer{out.Bytes(), parts, 0}
	if t.measured++; t.measured <= t.cfg.breakdownRounds {
		t.measureBreakdown(shard.Flatten(parts))
	}
}

// aggregateReq replays one /v1/aggregate.
func (t *traced) aggregateReq() {
	var out bytes.Buffer
	parts := t.store.Snapshot()
	t.request(kAggregate, func() {
		groups := t.group(parts)
		var ags []*aggregate.Aggregated
		var err error
		t.tr.span("aggregate.aggregate", func() { ags, err = t.shards[0].AggregateGroups(t.ctx, groups) })
		if err != nil {
			t.failf("aggregate: %v", err)
			return
		}
		t.tr.span("server.encode_aggregate", func() {
			_ = server.EncodeResponse(&out, server.BuildAggregateResponse(total(parts), ags))
		})
	})
	t.last[kAggregate] = &answer{out.Bytes(), parts, 0}
}

// verify checks the last body of each query kind against the oracle.
func (t *traced) verify() error {
	orc := newOracle()
	defer orc.close()
	for _, kind := range []string{kSchedule, kMeasures, kAggregate} {
		a := t.last[kind]
		if a == nil {
			t.failf("traced %s: never answered", kind)
			continue
		}
		var want []byte
		var err error
		switch kind {
		case kSchedule:
			want, err = orc.schedule(a.parts, a.level)
		case kMeasures:
			want, err = orc.measures(a.parts)
		case kAggregate:
			want, err = orc.aggregate(a.parts)
		}
		if err != nil {
			return err
		}
		if err := sameBody("traced "+kind, a.body, want); err != nil {
			t.errs = append(t.errs, err)
		}
	}
	return nil
}

// servedMeasures mirrors the measure set /v1/measures serves under the
// default L1 norm, in Table 1 column order.
func servedMeasures() []core.Measure {
	return []core.Measure{
		core.TimeMeasure{},
		core.EnergyMeasure{},
		core.ProductMeasure{},
		core.VectorMeasure{NormKind: timeseries.L1},
		core.SeriesMeasure{NormKind: timeseries.L1, Aligned: true},
		core.AssignmentsMeasure{},
		core.AbsoluteAreaMeasure{},
		core.RelativeAreaMeasure{},
	}
}

// measureBreakdown times each served measure's per-offer values and
// set-level value serially — side work that splits core.measures_ms by
// measure.
func (t *traced) measureBreakdown(offers []*flexoffer.FlexOffer) {
	for _, m := range servedMeasures() {
		t.tr.span("core."+m.Name()+".value", func() {
			for _, f := range offers {
				_, _ = m.Value(f)
			}
		})
		t.tr.span("core."+m.Name()+".set", func() { _, _ = m.SetValue(offers) })
	}
}

// result folds the spans and counts into the per-layer metrics.
func (t *traced) result(ref map[string]float64) (*result, *report) {
	if t.incHits+t.incMisses > 0 {
		t.tr.count("inc.hit_ratio", float64(t.incHits)/float64(t.incHits+t.incMisses))
	}
	t.tr.count("inc.full_runs", float64(t.incFull))
	res := &result{Correct: len(t.errs) == 0, Metrics: map[string]metric{}}
	for _, m := range layerMetrics {
		var v float64
		switch name := m.Name; {
		case name == "trace.coverage":
			v = t.tr.coverage(ref)
		case name == "inc.run_self_ms":
			v = t.tr.selfMS("inc.run")
		case t.tr.counts[name] != nil:
			// Per-request counts report their median; a total over
			// the replay is recorded once.
			v = median(t.tr.counts[name])
		case m.Unit == "ms":
			v = t.tr.layerMS(name[:len(name)-len("_ms")])
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	res.Attempted, res.Failed = t.led.totals()
	if res.Attempted == 0 {
		res.Correct = false
	}
	rep := &report{Samples: map[string]int{}, Requests: t.led, Targets: map[string][]string{}}
	for _, m := range layerMetrics {
		if m.Moves != nil {
			rep.Targets[m.Name] = m.Moves
		}
	}
	for k, v := range t.led {
		rep.Samples[k] = v.Attempted
	}
	for _, e := range t.errs {
		rep.Errors = append(rep.Errors, e.Error())
	}
	rep.Extra = map[string]float64{}
	for k, v := range ref {
		rep.Extra["live_"+k+"_p50_ms"] = v
	}
	return res, rep
}
