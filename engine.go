package flex

import (
	"context"
	"errors"
	"math"
	"sync"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/core"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/inc"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/pool"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/timeseries"
)

// Engine is the library's long-lived entry point: one option-configured
// object that owns a persistent worker pool and presents the paper's
// operations — aggregation (Scenario 1), scheduling, the full streaming
// pipeline, disaggregation and the flexibility measures — as
// context-first methods. Create one with New at startup, share it
// freely (every method is safe for concurrent use; calls share the pool
// without sharing any per-call state), and Close it on shutdown.
//
// The Engine exists because a service handling heavy traffic should not
// pay goroutine-pool setup per request: the free functions this API
// replaces each spun up and tore down their own workers on every call.
// An Engine's pool outlives calls, so the per-request cost is the work
// itself. Results are bit-identical to the deprecated free functions
// for every worker count — the equivalence tests pin this down.
//
// One option set governs every method: WithPeakCap, for example,
// applies to Schedule and Pipeline alike, so the same cap can never
// silently differ between the two paths (the trap the legacy
// Config.PeakCap — consulted only by SchedulePipeline — left open).
type Engine struct {
	opts engineOptions
	// pool is nil when the engine is serial (WithWorkers(1)): methods
	// then run entirely on the calling goroutine.
	pool *pool.Pool
	// incState is the incremental-scheduling cache behind
	// WithIncremental, created lazily on the first incremental Pipeline
	// call. Runs serialize on the state's own mutex: placement against
	// one shared residual was always a serial stage per call, and the
	// cache swap must be atomic with it.
	incOnce  sync.Once
	incState *inc.State
}

// engineOptions is the resolved option set of one Engine.
type engineOptions struct {
	workers int
	group   GroupParams
	// grouper, when non-nil, replaces the built-in sharded threshold
	// grouper as the pipeline's entry stage (WithGrouper).
	grouper Grouper
	// placement is the greedy scheduler's placement order
	// (WithPlacement); placeMeasure ranks offers for the
	// flexibility-aware orders (WithPlacementMeasure).
	placement    ScheduleOrder
	placeMeasure Measure
	safe         bool
	peakCap      int64
	errMode      ErrorMode
	norm         Norm
	// incremental switches Pipeline to the stateful cached path
	// (WithIncremental); incThreshold is its dirty-fraction fallback
	// bound (WithIncrementalThreshold, 0 = inc.DefaultThreshold).
	incremental  bool
	incThreshold float64
}

// Option configures an Engine at construction (functional options) —
// and, passed to an Engine method, overrides the engine's option set
// for that one call: eng.Aggregate(ctx, offers, WithGrouping(p)) runs
// one aggregation under grouping p without touching the engine or its
// pool. Per-call overrides are what let a tolerance sweep share one
// engine instead of constructing one per tolerance. A per-call
// WithWorkers caps the call's share of the persistent pool (on a
// serial engine it spins up per-call goroutines instead, since there
// is no pool to share).
type Option func(*engineOptions)

// WithWorkers sizes the engine's persistent worker pool: 0 (the
// default) means one worker per logical CPU, 1 makes the engine fully
// serial (no pool, every method runs on the calling goroutine), and
// larger values pin the pool size.
func WithWorkers(n int) Option {
	return func(o *engineOptions) { o.workers = n }
}

// WithGrouping sets the similarity tolerances of the engine's built-in
// grouper — the parallel sharded threshold strategy Aggregate and
// Pipeline partition offers with, whose output is bit-identical to the
// serial aggregate.Group for every worker count. The default is the
// zero GroupParams (identical earliest starts and time flexibilities
// per group, unbounded group size). WithGrouping maps onto WithGrouper:
// it (re)selects the built-in grouper under p, replacing any custom
// Grouper installed earlier in the option list.
func WithGrouping(p GroupParams) Option {
	return func(o *engineOptions) {
		o.group = p
		o.grouper = nil
	}
}

// WithGrouper installs a custom grouping strategy as the pipeline's
// entry stage: Aggregate and Pipeline hand the offers to g and
// aggregate whatever partition it returns. The grouping package ships
// the strategies — grouping.Sharded (the default, attach the engine's
// Executor for pool-backed packing), grouping.Threshold,
// grouping.Balance — and aggregate.Optimizer adapts the loss-bounded
// optimizing strategy. A grouper that also implements grouping.Streamer
// (as Sharded does) lets Pipeline start aggregating the first shard's
// groups while later shards are still being packed. The Grouper must be
// safe for concurrent use; the engine shares it across calls.
func WithGrouper(g Grouper) Option {
	return func(o *engineOptions) { o.grouper = g }
}

// WithPlacement selects the greedy scheduler's placement order for
// Schedule and Pipeline — the option that retires the deprecated
// options-taking Schedule free function for every order except
// OrderRandom (which needs a caller-owned rand source and stays with
// the sched options). Pipeline streams placements and therefore
// supports OrderArrival only; other orders make it fail with
// sched.ErrStreamOrder. The default is OrderArrival.
func WithPlacement(order ScheduleOrder) Option {
	return func(o *engineOptions) { o.placement = order }
}

// WithPlacementMeasure sets the flexibility measure ranking offers for
// the flexibility-aware placement orders (OrderLeastFlexibleFirst,
// OrderMostFlexibleFirst). The default is the paper's vector measure.
// The measure must be safe for concurrent use — every measure in this
// library is.
func WithPlacementMeasure(m Measure) Option {
	return func(o *engineOptions) { o.placeMeasure = m }
}

// WithSafe makes Aggregate and Pipeline tighten every constituent's
// totals into its slice bounds before aggregating (AggregateSafe),
// guaranteeing that every valid aggregate assignment disaggregates.
func WithSafe(safe bool) Option {
	return func(o *engineOptions) { o.safe = safe }
}

// WithPeakCap sets a soft peak cap: Schedule and Pipeline treat |load|
// above the cap as prohibitively expensive — the paper's DSO congestion
// management. The cap is soft: when the fleet's mandatory energy cannot
// fit under it, a schedule is still produced with the overage
// minimised. 0 (the default) disables the cap.
func WithPeakCap(cap int64) Option {
	return func(o *engineOptions) { o.peakCap = cap }
}

// WithIncremental switches Pipeline (and PipelineRouted on a sharded
// engine) to incremental continuous scheduling: the engine keeps a
// content-addressed cache of each group's aggregate and placement
// across calls, so a call after a small fleet delta re-aggregates and
// re-places only the groups whose membership changed — O(changed
// groups) instead of O(fleet) — and replays the rest with O(profile)
// integer adds. The output is bit-identical to the stateless pipeline
// for every churn sequence, shard count and worker count (the
// equivalence property test pins this); the stateless path remains the
// oracle. Incremental runs serialize on the engine's cache; the
// stateless stages still fan out across the worker pool. Only
// OrderArrival placement is supported, exactly like the streaming
// pipeline.
func WithIncremental(on bool) Option {
	return func(o *engineOptions) { o.incremental = on }
}

// WithIncrementalThreshold sets the dirty-fraction fallback bound of
// incremental scheduling: when more than this fraction of groups
// changed since the last call, the run re-places everything instead of
// maintaining the reuse bookkeeping (cached aggregates are still
// reused). 0 selects inc.DefaultThreshold (0.5); 1 never falls back.
// The fallback changes cost only, never output.
func WithIncrementalThreshold(frac float64) Option {
	return func(o *engineOptions) { o.incThreshold = frac }
}

// WithErrorMode selects first-error or collect-all failure reporting
// for the per-group stages (Aggregate, Pipeline, Disaggregate). The
// default is FirstError.
func WithErrorMode(m ErrorMode) Option {
	return func(o *engineOptions) { o.errMode = m }
}

// WithNorm selects the norm (L1, L2, LInf) the vector and series
// measures use in Measures. The default is L1, matching AllMeasures.
func WithNorm(n Norm) Option {
	return func(o *engineOptions) { o.norm = n }
}

// New returns a long-lived Engine configured by the options. Unless
// WithWorkers(1) made it serial, the engine starts its worker pool
// immediately; the pool persists across calls until Close.
func New(opts ...Option) *Engine {
	e := &Engine{opts: engineOptions{norm: L1}}
	for _, opt := range opts {
		opt(&e.opts)
	}
	if e.opts.norm == 0 {
		e.opts.norm = L1
	}
	if e.opts.workers != 1 {
		e.pool = pool.New(e.opts.workers)
	}
	return e
}

// Workers reports the engine's resolved worker count (1 for a serial
// engine).
func (e *Engine) Workers() int {
	if e.pool == nil {
		return 1
	}
	return e.pool.Workers()
}

// Close releases the engine's worker pool. Calls already in flight
// complete; calls made after Close still work, degraded to the calling
// goroutine. Close is idempotent.
func (e *Engine) Close() { e.pool.Close() }

// Executor exposes the engine's persistent worker pool as an Executor,
// for subsystems that shard their own index-addressed work across it —
// the flexd service's NDJSON decode shards submit here. It is nil for
// a serial engine, which every Executor consumer treats as per-call
// spin-up.
func (e *Engine) Executor() Executor {
	if e.pool == nil {
		return nil
	}
	return e.pool
}

// PoolStats reports the pool's size and how many of its workers are
// executing a task right now — the occupancy gauge flexd's /metrics
// endpoint exports. A serial engine reports (1, 0).
func (e *Engine) PoolStats() (workers, busy int) {
	if e.pool == nil {
		return 1, 0
	}
	return e.pool.Workers(), e.pool.Busy()
}

// resolve returns the engine's option set with per-call overrides
// applied. The engine's own options are copied by value, so a call
// never mutates the engine.
func (e *Engine) resolve(opts []Option) engineOptions {
	o := e.opts
	for _, opt := range opts {
		opt(&o)
	}
	if o.norm == 0 {
		o.norm = L1
	}
	return o
}

// optionsOf lifts a legacy Config into the engine's option shape — the
// inverse bridge the deprecated shims enter the shared pipeline
// through. A Config carries no grouper or placement, so the lifted set
// uses the built-in grouper and arrival order, exactly what the legacy
// entry points always did.
func optionsOf(cfg Config) engineOptions {
	return engineOptions{
		workers: cfg.Workers,
		group:   cfg.Group,
		safe:    cfg.Safe,
		peakCap: cfg.PeakCap,
		errMode: cfg.ErrorMode,
		norm:    L1,
	}
}

// parallelParams attaches the engine's pool to per-call parallel
// params: pp.Workers == 1 stays serial (matching the legacy contract
// that 1 forces the serial path); anything else submits to the
// persistent pool, with pp.Workers capping this call's share of it.
func (e *Engine) parallelParams(pp ParallelParams) ParallelParams {
	// The nil check on e.pool matters: wrapping a nil *pool.Pool in the
	// Executor interface would make pp.Pool non-nil and silently
	// serialize the call instead of falling back to per-call spin-up.
	if pp.Workers != 1 && pp.Pool == nil && e.pool != nil {
		pp.Pool = e.pool
	}
	return pp
}

// grouper resolves the option set's grouping strategy: the custom
// Grouper when one is installed, otherwise the built-in parallel
// sharded threshold grouper over the engine's pool — whose output is
// bit-identical to the serial aggregate.Group, so switching an engine
// between worker counts (or to a serial engine) never changes the
// partition.
func (e *Engine) grouper(o engineOptions) Grouper {
	if o.grouper != nil {
		return o.grouper
	}
	return &grouping.Sharded{Params: o.group, Pool: e.Executor(), Workers: o.workers}
}

// Aggregate partitions the offers with the engine's grouper — the
// parallel sharded threshold strategy unless WithGrouper installed
// another — and aggregates every group on the worker pool (Scenario 1's
// aggregation stage). The result is identical to the serial
// AggregateAll in the same group order for every engine configuration;
// per-group failures are reported under the engine's error mode.
// Options override the engine's option set for this call only — e.g.
// Aggregate(ctx, offers, WithGrouping(p)) sweeps a tolerance without
// constructing a second engine.
func (e *Engine) Aggregate(ctx context.Context, offers []*FlexOffer, opts ...Option) ([]*Aggregated, error) {
	o := e.resolve(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	groups, err := e.grouper(o).Group(ctx, offers)
	if err != nil {
		return nil, err
	}
	return e.aggregateGroups(ctx, groups, o)
}

// AggregateGroups aggregates pre-computed groups — the output of
// GroupOffers, BalanceGroups or OptimizeGroups — on the worker pool,
// preserving group order, for callers whose partitioning strategy is
// not the engine's grouper. WithSafe (engine-level or per-call) selects
// safe aggregation; failures are reported under the error mode exactly
// like Aggregate.
func (e *Engine) AggregateGroups(ctx context.Context, groups [][]*FlexOffer, opts ...Option) ([]*Aggregated, error) {
	o := e.resolve(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.aggregateGroups(ctx, groups, o)
}

// aggregateGroups fans the aggregation of a materialized partition out
// across the pool under the resolved option set.
func (e *Engine) aggregateGroups(ctx context.Context, groups [][]*FlexOffer, o engineOptions) ([]*Aggregated, error) {
	pp := e.parallelParams(ParallelParams{Workers: o.workers, ErrorMode: o.errMode})
	if o.safe {
		return aggregate.AggregateGroupsSafeParallel(ctx, groups, pp)
	}
	return aggregate.AggregateGroupsParallel(ctx, groups, pp)
}

// aggregateWith is aggregation under an explicit legacy Config — the
// implementation behind the deprecated AggregateWithConfig shim, kept
// on the exact legacy code path (serial grouping, serial fast path for
// one first-error worker); Engine.Aggregate itself enters through the
// grouper. Both produce bit-identical output — the equivalence tests
// pin it.
func (e *Engine) aggregateWith(ctx context.Context, offers []*FlexOffer, cfg Config) ([]*Aggregated, error) {
	// The Workers == 1 fast path skips the per-group error slots, which
	// is only legal in first-error mode: collect-all must keep
	// aggregating past failures, so it goes through the slot machinery
	// below (with one worker that machinery still runs inline on the
	// calling goroutine, in group order).
	if cfg.Workers == 1 && cfg.ErrorMode == FirstError {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.Safe {
			return aggregate.AggregateAllSafe(offers, cfg.Group)
		}
		return aggregate.AggregateAll(offers, cfg.Group)
	}
	pp := e.parallelParams(ParallelParams{Workers: cfg.Workers, ErrorMode: cfg.ErrorMode})
	if cfg.Safe {
		return aggregate.AggregateAllSafeParallel(ctx, offers, cfg.Group, pp)
	}
	return aggregate.AggregateAllParallelCtx(ctx, offers, cfg.Group, pp)
}

// Schedule greedily assigns every offer a start time and energy values
// so the total load tracks the target series, using the incremental
// candidate evaluator, the engine's peak cap (overridable per call with
// WithPeakCap), and the engine's placement order (WithPlacement, with
// WithPlacementMeasure ranking offers for the flexibility-aware
// orders). OrderRandom needs a caller-owned rand source and therefore
// stays with the deprecated options-taking Schedule function.
func (e *Engine) Schedule(ctx context.Context, offers []*FlexOffer, target Series, opts ...Option) (*ScheduleResult, error) {
	o := e.resolve(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := obs.Start(ctx, obs.StageSchedule)
	defer sp.End()
	return sched.Schedule(offers, target, sched.Options{
		PeakCap: o.peakCap,
		Order:   o.placement,
		Measure: o.placeMeasure,
	})
}

// Improve refines a schedule by local search: each round re-places one
// offer at a time against the residual target and keeps moves that
// lower the L1 imbalance, until a full sweep makes no improvement or
// maxRounds is reached (0: until convergence). It runs on the
// incremental evaluator, so each re-placement is O(profile) rather
// than O(horizon) per candidate. Improve minimises imbalance only; the
// engine's peak cap does not constrain it.
func (e *Engine) Improve(ctx context.Context, offers []*FlexOffer, target Series, res *ScheduleResult, maxRounds int) (*ScheduleResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sched.Improve(offers, target, res, maxRounds)
}

// Pipeline runs the paper's full Scenario-1 chain — group → aggregate →
// schedule → disaggregate — as one streaming pipeline on the engine's
// worker pool, entered through the engine's grouper: the sharded
// grouper streams each shard's groups to the aggregation workers as
// soon as the shard is packed, each finished aggregate is handed
// straight to the scheduler, which places it as soon as its group index
// is next, and the scheduled aggregates are disaggregated by the same
// workers. No stage waits for the previous one to finish its whole
// batch. The result is identical to the materialized sequence Aggregate
// → Schedule (arrival order) → Disaggregate for every engine
// configuration, and the engine's peak cap applies exactly as in
// Schedule. Options override the engine's option set for this call
// only.
func (e *Engine) Pipeline(ctx context.Context, offers []*FlexOffer, target Series, opts ...Option) (*PipelineResult, error) {
	return e.pipeline(ctx, offers, target, e.resolve(opts))
}

// pipelineWith is Pipeline under an explicit legacy Config — the bridge
// the deprecated SchedulePipeline shim enters through.
func (e *Engine) pipelineWith(ctx context.Context, offers []*FlexOffer, target Series, cfg Config) (*PipelineResult, error) {
	return e.pipeline(ctx, offers, target, optionsOf(cfg))
}

// pipeline is the streaming chain under a resolved option set.
func (e *Engine) pipeline(ctx context.Context, offers []*FlexOffer, target Series, o engineOptions) (*PipelineResult, error) {
	// The streaming scheduler supports arrival order only; fail before
	// grouping and aggregating a whole fleet whose schedule can never
	// start. ScheduleStream re-checks, so the two cannot drift.
	if o.placement != OrderArrival {
		return nil, sched.ErrStreamOrder
	}
	if o.incremental {
		return e.pipelineIncremental(ctx, offers, target, o)
	}
	// Cancelling on return releases the grouping and aggregation workers
	// if scheduling or disaggregation aborts early.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pp := e.parallelParams(ParallelParams{Workers: o.workers, ErrorMode: o.errMode})
	g := e.grouper(o)
	var (
		items <-chan AggregateStreamItem
		n     int
	)
	if sg, ok := g.(grouping.Streamer); ok {
		// Streaming entry: aggregation of the first shard's groups
		// overlaps the packing of later shards; the group count arrives
		// once the grouper has seen the whole input.
		var nch <-chan int
		if o.safe {
			items, nch = aggregate.AggregateGrouperSafeStream(ctx, offers, sg, pp)
		} else {
			items, nch = aggregate.AggregateGrouperStream(ctx, offers, sg, pp)
		}
		got, ok := <-nch
		if !ok {
			// The grouper stopped before the count was known; only a
			// cancelled ctx does that.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, errors.New("flex: grouping stream ended before the group count was known")
		}
		n = got
	} else {
		// A grouper without a streaming side (custom strategies,
		// fallible ones) materializes its partition first.
		groups, err := g.Group(ctx, offers)
		if err != nil {
			return nil, err
		}
		if o.safe {
			items, n = aggregate.AggregateGroupsSafeStream(ctx, groups, pp)
		} else {
			items, n = aggregate.AggregateGroupsStream(ctx, groups, pp)
		}
	}
	sr, err := sched.ScheduleStream(ctx, items, n, target, sched.Options{PeakCap: o.peakCap, Order: o.placement})
	if err != nil {
		return nil, err
	}
	// ScheduleStream returns once the last group is placed; the
	// producer closes the stream (ending its aggregate span first)
	// just after delivering it. Draining the already-exhausted channel
	// waits for that close, so a finished trace never reports the
	// aggregation stage of a successful pipeline as still running.
	for range items {
	}
	obs.AddGroups(ctx, n)
	if err := ctx.Err(); err != nil {
		// A cancellation racing the end of the group stream could
		// deliver a truncated-but-consistent prefix; never present one
		// as a complete schedule.
		return nil, err
	}
	parts, err := aggregate.DisaggregateAllParallel(ctx, sr.Aggregates, sr.Assignments, pp)
	if err != nil {
		return nil, err
	}
	return &PipelineResult{
		Aggregates:        sr.Aggregates,
		AggregateSchedule: &sr.Result,
		Disaggregated:     parts,
		Load:              sr.Load,
	}, nil
}

// incrementalState returns the engine's incremental cache, creating it
// on first use.
func (e *Engine) incrementalState() *inc.State {
	e.incOnce.Do(func() { e.incState = inc.NewState() })
	return e.incState
}

// IncrementalStats reports the incremental-scheduling cache statistics
// (all zero when WithIncremental was never used).
func (e *Engine) IncrementalStats() inc.Stats {
	return e.incrementalState().Stats()
}

// InvalidateIncremental drops the incremental-scheduling cache — the
// hook a store reset calls. The next incremental Pipeline call runs
// full and rebuilds it. Never needed for correctness (the cache is
// content-addressed), only to release memory promptly.
func (e *Engine) InvalidateIncremental() {
	e.incrementalState().Invalidate()
}

// pipelineIncremental is the stateful cached pipeline behind
// WithIncremental: materialize the partition (grouping always runs —
// it is a cheap integer sort and the source of group identity), key
// every group against the cache, aggregate only the misses on the
// worker pool, merge-walk the placement, and disaggregate only the
// groups whose assignment changed. Bit-identical to the streaming
// stateless path for every input.
func (e *Engine) pipelineIncremental(ctx context.Context, offers []*FlexOffer, target Series, o engineOptions) (*PipelineResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	groups, err := e.grouper(o).Group(ctx, offers)
	if err != nil {
		return nil, err
	}
	obs.AddGroups(ctx, len(groups))
	pp := e.parallelParams(ParallelParams{Workers: o.workers, ErrorMode: o.errMode})
	res, err := e.incrementalState().Run(ctx, groups, target,
		inc.Config{PeakCap: o.peakCap, Safe: o.safe, Threshold: o.incThreshold},
		func(ctx context.Context, gs [][]*FlexOffer) ([]*Aggregated, error) {
			return e.aggregateGroups(ctx, gs, o)
		},
		func(ctx context.Context, ags []*Aggregated, asgs []Assignment) ([][]Assignment, error) {
			return aggregate.DisaggregateAllParallel(ctx, ags, asgs, pp)
		})
	if err != nil {
		return nil, err
	}
	return &PipelineResult{
		Aggregates:        res.Aggregates,
		AggregateSchedule: &sched.Result{Assignments: res.Assignments, Load: res.Load},
		Disaggregated:     res.Disaggregated,
		Load:              res.Load,
	}, nil
}

// Disaggregate maps scheduled aggregate assignments back to their
// constituents on the worker pool: assignments[i] must be valid for
// ags[i].Offer, and the result holds one assignment per constituent in
// constituent order. Failures are reported under the engine's error
// mode (overridable per call with WithErrorMode), keyed by aggregate
// index.
func (e *Engine) Disaggregate(ctx context.Context, ags []*Aggregated, assignments []Assignment, opts ...Option) ([][]Assignment, error) {
	o := e.resolve(opts)
	pp := e.parallelParams(ParallelParams{Workers: o.workers, ErrorMode: o.errMode})
	return aggregate.DisaggregateAllParallel(ctx, ags, assignments, pp)
}

// MeasureTable is Engine.Measures' output: the paper's eight measures
// (Table 1 column order) evaluated over a set of offers.
type MeasureTable struct {
	// Names holds the measure names, Table 1 column order.
	Names []string
	// Values[i][j] is measure j evaluated on offer i; NaN where the
	// measure is undefined for the offer (e.g. the relative area
	// measure on a mixed offer).
	Values [][]float64
	// Set[j] is measure j's set-level value over all offers; NaN where
	// undefined.
	Set []float64
}

// Measures evaluates the paper's eight flexibility measures on every
// offer — the vector and series measures under the engine's norm,
// overridable per call with WithNorm — plus the set-level values,
// fanning the offers across the worker pool. Undefined values are
// reported as NaN rather than failing the batch.
func (e *Engine) Measures(ctx context.Context, offers []*FlexOffer, opts ...Option) (*MeasureTable, error) {
	return measureTable(ctx, offers, e.resolve(opts).norm, e.runIndexed)
}

// measureTable is the measure table both engine types serve: fanOut
// calls fn(i) once for every row i in [0, n) — concurrently or not —
// and the set row is then folded from the computed columns.
func measureTable(ctx context.Context, offers []*FlexOffer, norm Norm, fanOut func(n int, fn func(int))) (*MeasureTable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ms := measureSet(norm)
	k := len(ms)
	t := &MeasureTable{
		Names:  make([]string, k),
		Values: make([][]float64, len(offers)),
		Set:    make([]float64, k),
	}
	for j, m := range ms {
		t.Names[j] = m.Name()
	}
	cells := make([]float64, len(offers)*k)
	done := ctx.Done()
	fanOut(len(offers), func(i int) {
		select {
		case <-done:
			return
		default:
		}
		row := cells[i*k : (i+1)*k : (i+1)*k]
		for j, m := range ms {
			v, err := m.Value(offers[i])
			if err != nil {
				v = math.NaN()
			}
			row[j] = v
		}
		t.Values[i] = row
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for j, m := range ms {
		t.Set[j] = setFromColumn(m, t.Values, j, offers)
	}
	return t, nil
}

// setFromColumn is m.SetValue(offers), NaN where it fails. For the
// Section 4 sum and average rules it folds column j of the computed
// rows instead of re-evaluating every offer: these are the additions
// SetValue makes in the same order, and a row whose Value failed is
// already NaN, as the failed SetValue would be.
func setFromColumn(m Measure, rows [][]float64, j int, offers []*FlexOffer) float64 {
	switch m.(type) {
	case core.TimeMeasure, core.EnergyMeasure, core.ProductMeasure, core.VectorMeasure,
		core.SeriesMeasure, core.AbsoluteAreaMeasure, core.RelativeAreaMeasure:
		if len(rows) == 0 {
			return math.NaN()
		}
		var sum float64
		for _, row := range rows {
			sum += row[j]
		}
		if _, mean := m.(core.RelativeAreaMeasure); mean {
			return sum / float64(len(rows))
		}
		return sum
	}
	v, err := m.SetValue(offers)
	if err != nil {
		return math.NaN()
	}
	return v
}

// measureSet is AllMeasures with the given norm applied to the vector
// and series measures (keeping the aligned series variant, whose
// behaviour matches every Table 1 cell).
func measureSet(n Norm) []Measure {
	return []Measure{
		core.TimeMeasure{},
		core.EnergyMeasure{},
		core.ProductMeasure{},
		core.VectorMeasure{NormKind: timeseries.Norm(n)},
		core.SeriesMeasure{NormKind: timeseries.Norm(n), Aligned: true},
		core.AssignmentsMeasure{},
		core.AbsoluteAreaMeasure{},
		core.RelativeAreaMeasure{},
	}
}

// runIndexed fans fn(i) over [0, n) across the engine's pool, or runs
// it inline on a serial engine.
func (e *Engine) runIndexed(n int, fn func(int)) {
	if e.pool != nil {
		e.pool.ForEach(n, 0, 0, fn)
		return
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// The default engine behind the deprecated free functions: created
// lazily on first use with default options, never closed. Its pool is
// shared by every shim call, so legacy callers get the persistent-pool
// execution model without code changes.
var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the lazily-created, process-wide engine the
// deprecated free functions route through. Prefer constructing your own
// Engine with New — it gives you option control and a Close — but the
// default engine is the right tool for one-off calls in short programs.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New() })
	return defaultEngine
}
