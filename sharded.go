package flex

import (
	"context"
	"errors"
	"sort"
	"sync"

	"flexmeasures/internal/aggregate"
	"flexmeasures/internal/grouping"
	"flexmeasures/internal/inc"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/sched"
	"flexmeasures/internal/shard"
)

// RoutedOffer is one offer in a shard store together with its global
// sequence number — the unit a shard router deals in. Parts handed to
// the *Routed methods must keep each shard's entries in ascending Seq
// order with globally unique Seqs, which is exactly what
// ShardedEngine.Partition and the flexd shard store produce.
type RoutedOffer = shard.Entry

// ShardedEngine presents the Engine's context-first surface over N
// engine shards: each shard owns its own persistent worker pool and
// serves a slice of the population chosen by a shard router (grid
// zone/tenant when the offer carries one, consistent hash of the
// prosumer ID otherwise, round-robin for anonymous offers).
//
// Pipeline and Aggregate run scatter-gather: every shard stable-sorts
// its part on its own pool, the runs are k-way merged by (earliest
// start, time flexibility, sequence) — which reproduces the global
// stable grouping order bit for bit, because sequence order is store
// order — the merged run is greedily packed (segmented in parallel at
// the EST-gap cuts), per-group aggregation fans out across the shard
// pools in contiguous blocks streamed into the global greedy
// scheduler, and disaggregation fans back out the same way. The output
// is therefore bit-identical to a single Engine over the same
// population for every shard count, worker count, and routing key —
// the property test in sharded_test.go pins this.
//
// A ShardedEngine is safe for concurrent use exactly like an Engine.
// Close it on shutdown to release every shard's pool.
type ShardedEngine struct {
	engines []*Engine
	router  shard.Router
	opts    engineOptions
	// incState is the incremental-scheduling cache behind
	// WithIncremental — the sharded surface keeps its own (distinct
	// from any shard engine's) because its aggregation fan-out spans
	// every shard pool. Created lazily; runs serialize on its mutex.
	incOnce  sync.Once
	incState *inc.State
}

// NewSharded returns a ShardedEngine of `shards` engine shards (values
// below 1 mean 1), each constructed with the same options — so every
// shard gets its own pool of the configured size. Options work exactly
// as on New, including per-call overrides on every method.
func NewSharded(shards int, opts ...Option) *ShardedEngine {
	if shards < 1 {
		shards = 1
	}
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = New(opts...)
	}
	return newShardedFrom(engines)
}

// NewShardedFrom wraps existing engines as the shards of a
// ShardedEngine — the bridge that lets a single-engine caller (or
// test) enter the sharded surface without re-constructing pools. The
// wrapper's option set is taken from the first engine; Close closes
// every wrapped engine (Engine.Close is idempotent, so closing them
// yourself too is harmless). No engines means one default shard.
func NewShardedFrom(engines ...*Engine) *ShardedEngine {
	if len(engines) == 0 {
		engines = []*Engine{New()}
	}
	return newShardedFrom(engines)
}

func newShardedFrom(engines []*Engine) *ShardedEngine {
	return &ShardedEngine{
		engines: engines,
		router:  shard.Router{Shards: len(engines)},
		opts:    engines[0].opts,
	}
}

// SetRouterKey replaces the router's partitioning key — the pluggable
// seam for deployments whose affinity is neither zone nor prosumer ID
// (an empty key falls back to round-robin). Call it before the engine
// starts partitioning offers; it is not synchronized with in-flight
// calls. The scatter-gather output is bit-identical to a single engine
// under every key, so changing the key never changes results, only
// locality.
func (se *ShardedEngine) SetRouterKey(key func(*FlexOffer) string) {
	se.router.Key = key
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.engines) }

// Workers reports the per-shard worker count (every shard is sized
// alike by NewSharded).
func (se *ShardedEngine) Workers() int { return se.engines[0].Workers() }

// Executor exposes shard 0's persistent pool for subsystems that shard
// their own index-addressed work (flexd's NDJSON decode submits here);
// nil when the shards are serial engines.
func (se *ShardedEngine) Executor() Executor { return se.engines[0].Executor() }

// PoolStats reports the pools' total size and busy workers, summed
// across shards.
func (se *ShardedEngine) PoolStats() (workers, busy int) {
	for _, eng := range se.engines {
		w, b := eng.PoolStats()
		workers += w
		busy += b
	}
	return workers, busy
}

// ShardPoolStats reports shard k's pool size and busy workers — the
// per-shard gauge flexd's /metrics labels by shard.
func (se *ShardedEngine) ShardPoolStats(k int) (workers, busy int) {
	return se.engines[k].PoolStats()
}

// Close releases every shard's worker pool. Like Engine.Close it is
// idempotent, and calls after Close still work, degraded to per-call
// goroutines.
func (se *ShardedEngine) Close() {
	for _, eng := range se.engines {
		eng.Close()
	}
}

// Partition routes a materialized offer slice through the shard router
// into per-shard parts, assigning global sequence numbers in input
// order — the entry point the non-Routed convenience methods use. A
// long-lived service keeps offers pre-routed (flexd's shard store)
// and calls the Routed methods directly instead.
func (se *ShardedEngine) Partition(offers []*FlexOffer) [][]RoutedOffer {
	return shard.Partition(offers, se.router)
}

// resolve mirrors Engine.resolve over the sharded option set.
func (se *ShardedEngine) resolve(opts []Option) engineOptions {
	o := se.opts
	for _, opt := range opts {
		opt(&o)
	}
	if o.norm == 0 {
		o.norm = L1
	}
	return o
}

// engineFor returns the engine serving shard k, tolerating parts
// slices wider than the shard count.
func (se *ShardedEngine) engineFor(k int) *Engine {
	return se.engines[k%len(se.engines)]
}

// blockBounds splits n work items into one contiguous block per shard:
// bounds[k]..bounds[k+1] is shard k's block. Contiguity is what makes
// re-indexing a block's output a single offset add.
func blockBounds(n, shards int) []int {
	bounds := make([]int, shards+1)
	for k := 0; k <= shards; k++ {
		bounds[k] = k * n / shards
	}
	return bounds
}

// Aggregate partitions the offers with the shard router and runs the
// scatter-gather grouping + aggregation — bit-identical to
// Engine.Aggregate over the same offers for every shard count.
func (se *ShardedEngine) Aggregate(ctx context.Context, offers []*FlexOffer, opts ...Option) ([]*Aggregated, error) {
	return se.AggregateRouted(ctx, se.Partition(offers), opts...)
}

// AggregateRouted is Aggregate over pre-routed parts (see RoutedOffer
// for the part invariants).
func (se *ShardedEngine) AggregateRouted(ctx context.Context, parts [][]RoutedOffer, opts ...Option) ([]*Aggregated, error) {
	o := se.resolve(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	groups, err := se.scatterGroup(ctx, parts, o)
	if err != nil {
		return nil, err
	}
	obs.AddGroups(ctx, len(groups))
	return se.scatterAggregateGroups(ctx, groups, o)
}

// scatterAggregateGroups fans per-group aggregation out across the
// shard engines in contiguous blocks — the materialized counterpart of
// scatterAggregateStream, shared by AggregateRouted and the incremental
// pipeline's miss aggregation.
func (se *ShardedEngine) scatterAggregateGroups(ctx context.Context, groups [][]*FlexOffer, o engineOptions) ([]*Aggregated, error) {
	n := len(groups)
	if n == 0 {
		// Delegate the empty case so the result (nil vs empty slice)
		// matches Engine.Aggregate exactly.
		return se.engines[0].aggregateGroups(ctx, groups, o)
	}
	bounds := blockBounds(n, len(se.engines))
	out := make([]*Aggregated, n)
	errs := make([]error, len(se.engines))
	var wg sync.WaitGroup
	for k := range se.engines {
		lo, hi := bounds[k], bounds[k+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			// Each shard's block aggregates under its own shard-labeled
			// span (started inside aggregateGroups' parallel stage).
			ags, err := se.engines[k].aggregateGroups(obs.WithShard(ctx, k), groups[lo:hi], o)
			if err != nil {
				errs[k] = offsetBlockErr(err, lo)
				return
			}
			copy(out[lo:hi], ags)
		}(k, lo, hi)
	}
	wg.Wait()
	if err := mergeBlockErrs(errs, o.errMode); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Schedule flattens the population back into store order and runs the
// global greedy scheduler — scheduling against one shared residual is
// inherently sequential, so it is the gather-side serial stage, not a
// fan-out. Identical to Engine.Schedule on the flattened offers.
func (se *ShardedEngine) Schedule(ctx context.Context, offers []*FlexOffer, target Series, opts ...Option) (*ScheduleResult, error) {
	o := se.resolve(opts)
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

// ScheduleRouted is Schedule over pre-routed parts.
func (se *ShardedEngine) ScheduleRouted(ctx context.Context, parts [][]RoutedOffer, target Series, opts ...Option) (*ScheduleResult, error) {
	return se.Schedule(ctx, shard.Flatten(parts), target, opts...)
}

// Pipeline partitions the offers with the shard router and runs the
// full Scenario-1 chain scatter-gather; see PipelineRouted.
func (se *ShardedEngine) Pipeline(ctx context.Context, offers []*FlexOffer, target Series, opts ...Option) (*PipelineResult, error) {
	return se.PipelineRouted(ctx, se.Partition(offers), target, opts...)
}

// PipelineRouted runs group → aggregate → schedule → disaggregate over
// pre-routed parts as one scatter-gather pipeline: per-shard sorting
// and per-group aggregation fan out across the shard pools, the
// deterministic merge and the greedy placement run at the gather
// point, and each finished aggregate is placed as soon as its group
// index is next — aggregation of later groups overlaps placement of
// earlier ones exactly as in Engine.Pipeline. The result is
// bit-identical to Engine.Pipeline over the flattened population for
// every configuration; like it, only OrderArrival placement is
// supported (sched.ErrStreamOrder otherwise).
func (se *ShardedEngine) PipelineRouted(ctx context.Context, parts [][]RoutedOffer, target Series, opts ...Option) (*PipelineResult, error) {
	o := se.resolve(opts)
	if o.placement != OrderArrival {
		return nil, sched.ErrStreamOrder
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Cancelling on return releases the aggregation workers if
	// scheduling or disaggregation aborts early.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	groups, err := se.scatterGroup(ctx, parts, o)
	if err != nil {
		return nil, err
	}
	obs.AddGroups(ctx, len(groups))
	if o.incremental {
		return se.pipelineRoutedIncremental(ctx, groups, target, o)
	}
	items, n := se.scatterAggregateStream(ctx, groups, o)
	sr, err := sched.ScheduleStream(ctx, items, n, target, sched.Options{PeakCap: o.peakCap, Order: o.placement})
	if err != nil {
		return nil, err
	}
	// Drain the exhausted stream so the merge goroutine has closed it —
	// and ended the parent aggregate span — before the trace finishes
	// (see Engine.pipeline for the same idiom).
	for range items {
	}
	if err := ctx.Err(); err != nil {
		// Never present a cancellation-truncated schedule as complete.
		return nil, err
	}
	disagg, err := se.scatterDisaggregate(ctx, sr.Aggregates, sr.Assignments, o)
	if err != nil {
		return nil, err
	}
	return &PipelineResult{
		Aggregates:        sr.Aggregates,
		AggregateSchedule: &sr.Result,
		Disaggregated:     disagg,
		Load:              sr.Load,
	}, nil
}

// incrementalState returns the sharded engine's incremental cache,
// creating it on first use.
func (se *ShardedEngine) incrementalState() *inc.State {
	se.incOnce.Do(func() { se.incState = inc.NewState() })
	return se.incState
}

// IncrementalStats reports the incremental-scheduling cache statistics
// (all zero when WithIncremental was never used) — the numbers behind
// flexd's flexd_sched_cache_hits_total and flexd_sched_dirty_groups.
func (se *ShardedEngine) IncrementalStats() inc.Stats {
	return se.incrementalState().Stats()
}

// InvalidateIncremental drops the incremental-scheduling cache — the
// hook the server's store reset calls. Never needed for correctness
// (the cache is content-addressed), only to release memory promptly.
func (se *ShardedEngine) InvalidateIncremental() {
	se.incrementalState().Invalidate()
}

// pipelineRoutedIncremental is the sharded incremental pipeline: the
// partition comes from the scatter-gather grouping stage exactly as in
// the stateless path (so group identity is bit-identical across shard
// counts), aggregate-cache misses fan out across the shard pools in
// contiguous blocks, the merge-walk placement runs at the gather point,
// and only the changed groups disaggregate.
func (se *ShardedEngine) pipelineRoutedIncremental(ctx context.Context, groups [][]*FlexOffer, target Series, o engineOptions) (*PipelineResult, error) {
	res, err := se.incrementalState().Run(ctx, groups, target,
		inc.Config{PeakCap: o.peakCap, Safe: o.safe, Threshold: o.incThreshold},
		func(ctx context.Context, gs [][]*FlexOffer) ([]*Aggregated, error) {
			return se.scatterAggregateGroups(ctx, gs, o)
		},
		func(ctx context.Context, ags []*Aggregated, asgs []Assignment) ([][]Assignment, error) {
			return se.scatterDisaggregate(ctx, ags, asgs, o)
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
// constituents, fanned out in contiguous blocks across the shard
// pools; identical to Engine.Disaggregate.
func (se *ShardedEngine) Disaggregate(ctx context.Context, ags []*Aggregated, assignments []Assignment, opts ...Option) ([][]Assignment, error) {
	return se.scatterDisaggregate(ctx, ags, assignments, se.resolve(opts))
}

// Measures evaluates the paper's eight measures over the partitioned
// population; see MeasuresRouted.
func (se *ShardedEngine) Measures(ctx context.Context, offers []*FlexOffer, opts ...Option) (*MeasureTable, error) {
	return se.MeasuresRouted(ctx, se.Partition(offers), opts...)
}

// MeasuresRouted evaluates the measure table over pre-routed parts:
// the parts are flattened back into store order (rows are
// order-sensitive output) and the per-offer rows fan out in contiguous
// blocks across the shard pools; the set-level row is computed at the
// gather point. Identical to Engine.Measures on the flattened offers.
func (se *ShardedEngine) MeasuresRouted(ctx context.Context, parts [][]RoutedOffer, opts ...Option) (*MeasureTable, error) {
	return measureTable(ctx, shard.Flatten(parts), se.resolve(opts).norm, func(n int, fn func(int)) {
		bounds := blockBounds(n, len(se.engines))
		var wg sync.WaitGroup
		for k := range se.engines {
			lo, hi := bounds[k], bounds[k+1]
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(k, lo, hi int) {
				defer wg.Done()
				se.engines[k].runIndexed(hi-lo, func(i int) { fn(lo + i) })
			}(k, lo, hi)
		}
		wg.Wait()
	})
}

// scatterGroup is the scatter-gather grouping stage: each non-empty
// part is stable-sorted by the grouping key on its shard's pool (the
// parts run concurrently with each other), the runs are k-way merged
// by (est, tf, seq) into the global stable grouping order, and the
// merged run is greedily packed — in parallel per EST-gap segment when
// the cut produces more than one (the same independence argument
// grouping.Sharded rests on). With a custom Grouper installed the
// parts are flattened and handed to it whole, as Engine does.
func (se *ShardedEngine) scatterGroup(ctx context.Context, parts [][]RoutedOffer, o engineOptions) ([][]*FlexOffer, error) {
	if o.grouper != nil {
		return o.grouper.Group(ctx, shard.Flatten(parts))
	}
	merged := se.scatterSort(ctx, parts, o)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if merged.Len() == 0 {
		return nil, nil
	}
	_, psp := obs.Start(ctx, obs.StageGroupPack)
	defer psp.End()
	ends := grouping.Cuts(merged.ESTs, o.group.ESTTolerance)
	if len(ends) == 1 {
		return grouping.Pack(merged.Offers, merged.TFs, o.group), nil
	}
	per := make([][][]*FlexOffer, len(ends))
	done := ctx.Done()
	se.engines[0].runIndexed(len(ends), func(k int) {
		select {
		case <-done:
			return
		default:
		}
		lo := 0
		if k > 0 {
			lo = ends[k-1]
		}
		hi := ends[k]
		per[k] = grouping.Pack(merged.Offers[lo:hi], merged.TFs[lo:hi], o.group)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := 0
	for _, g := range per {
		total += len(g)
	}
	out := make([][]*FlexOffer, 0, total)
	for _, g := range per {
		out = append(out, g...)
	}
	return out, nil
}

// scatterSort sorts every part on its shard's pool and merges the
// runs. The whole stage runs under one group_sort span with a
// shard-labeled child per non-empty part, so a trace shows both the
// critical path (parent) and the per-shard skew (children).
func (se *ShardedEngine) scatterSort(ctx context.Context, parts [][]RoutedOffer, o engineOptions) shard.Run {
	ctx, sp := obs.Start(ctx, obs.StageGroupSort)
	defer sp.End()
	runs := make([]shard.Run, len(parts))
	var wg sync.WaitGroup
	for k := range parts {
		if len(parts[k]) == 0 {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, ssp := obs.Start(obs.WithShard(ctx, k), obs.StageGroupSort)
			defer ssp.End()
			part := parts[k]
			offers := make([]*FlexOffer, len(part))
			seqs := make([]uint64, len(part))
			for i, e := range part {
				offers[i] = e.Offer
				seqs[i] = e.Seq
			}
			eng := se.engineFor(k)
			perm, ests, tfs := grouping.SortRun(offers, eng.Executor(), o.workers)
			run := shard.Run{
				Offers: make([]*FlexOffer, len(part)),
				Seqs:   make([]uint64, len(part)),
				ESTs:   make([]int, len(part)),
				TFs:    make([]int, len(part)),
			}
			for i, pi := range perm {
				run.Offers[i] = offers[pi]
				run.Seqs[i] = seqs[pi]
				run.ESTs[i] = ests[pi]
				run.TFs[i] = tfs[pi]
			}
			runs[k] = run
		}(k)
	}
	wg.Wait()
	return shard.MergeRuns(runs)
}

// scatterAggregateStream fans per-group aggregation out across the
// shard engines in contiguous blocks and merges the blocks' streams
// into one channel feeding the global scheduler, re-indexing every
// item by its block offset. The merged channel is buffered to the
// group count, so forwarders never block and abandoning the stream
// mid-way leaks nothing; block producers are likewise buffered.
func (se *ShardedEngine) scatterAggregateStream(ctx context.Context, groups [][]*FlexOffer, o engineOptions) (<-chan AggregateStreamItem, int) {
	n := len(groups)
	merged := make(chan aggregate.StreamItem, n)
	bounds := blockBounds(n, len(se.engines))
	// One parent aggregate span covers the whole fan-out; each shard's
	// block stream starts its own shard-labeled child. The parent ends
	// just before the merged channel closes, so draining the stream is
	// enough to see it completed (PipelineRouted does).
	actx, asp := obs.Start(ctx, obs.StageAggregate)
	var wg sync.WaitGroup
	for k := range se.engines {
		lo, hi := bounds[k], bounds[k+1]
		if lo == hi {
			continue
		}
		eng := se.engines[k]
		pp := eng.parallelParams(ParallelParams{Workers: o.workers, ErrorMode: o.errMode})
		sctx := obs.WithShard(actx, k)
		var items <-chan aggregate.StreamItem
		if o.safe {
			items, _ = aggregate.AggregateGroupsSafeStream(sctx, groups[lo:hi], pp)
		} else {
			items, _ = aggregate.AggregateGroupsStream(sctx, groups[lo:hi], pp)
		}
		wg.Add(1)
		go func(off int, items <-chan aggregate.StreamItem) {
			defer wg.Done()
			for it := range items {
				it.Index += off
				it.Err = offsetGroupErr(it.Err, off)
				merged <- it
			}
		}(lo, items)
	}
	go func() {
		wg.Wait()
		asp.End()
		close(merged)
	}()
	return merged, n
}

// scatterDisaggregate fans disaggregation out across the shard engines
// in contiguous aggregate blocks and stitches the per-constituent
// assignments back together in aggregate order.
func (se *ShardedEngine) scatterDisaggregate(ctx context.Context, ags []*Aggregated, assignments []Assignment, o engineOptions) ([][]Assignment, error) {
	n := len(ags)
	if n == 0 || len(assignments) != n {
		// Delegate the trivial and malformed cases so the results and
		// errors match Engine.Disaggregate exactly.
		pp := se.engines[0].parallelParams(ParallelParams{Workers: o.workers, ErrorMode: o.errMode})
		return aggregate.DisaggregateAllParallel(ctx, ags, assignments, pp)
	}
	ctx, sp := obs.Start(ctx, obs.StageDisaggregate)
	defer sp.End()
	bounds := blockBounds(n, len(se.engines))
	out := make([][]Assignment, n)
	errs := make([]error, len(se.engines))
	var wg sync.WaitGroup
	for k := range se.engines {
		lo, hi := bounds[k], bounds[k+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			eng := se.engines[k]
			pp := eng.parallelParams(ParallelParams{Workers: o.workers, ErrorMode: o.errMode})
			parts, err := aggregate.DisaggregateAllParallel(obs.WithShard(ctx, k), ags[lo:hi], assignments[lo:hi], pp)
			if err != nil {
				errs[k] = offsetBlockErr(err, lo)
				return
			}
			copy(out[lo:hi], parts)
		}(k, lo, hi)
	}
	wg.Wait()
	if err := mergeBlockErrs(errs, o.errMode); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// offsetGroupErr shifts a streamed group failure by its block offset so
// the merged stream reports global group indices.
func offsetGroupErr(err *aggregate.GroupError, off int) *aggregate.GroupError {
	if err == nil || off == 0 {
		return err
	}
	ge := *err
	ge.Group += off
	return &ge
}

// offsetBlockErr shifts the group indices inside a block's error by
// the block offset, leaving non-group errors (context cancellation)
// untouched.
func offsetBlockErr(err error, off int) error {
	if off == 0 {
		return err
	}
	var ges aggregate.GroupErrors
	if errors.As(err, &ges) {
		out := make(aggregate.GroupErrors, len(ges))
		for i, e := range ges {
			c := *e
			c.Group += off
			out[i] = &c
		}
		return out
	}
	var ge *aggregate.GroupError
	if errors.As(err, &ge) {
		c := *ge
		c.Group += off
		return &c
	}
	return err
}

// mergeBlockErrs combines per-block failures into one error under the
// error mode: first-error keeps the lowest block's error (blocks are
// index-ordered, so that is the lowest-indexed failure region);
// collect-all concatenates every block's group errors sorted by global
// group index, with non-group errors (cancellation) taking precedence.
func mergeBlockErrs(errs []error, mode ErrorMode) error {
	if mode != CollectAll {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	var all aggregate.GroupErrors
	var other error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var ges aggregate.GroupErrors
		var ge *aggregate.GroupError
		switch {
		case errors.As(err, &ges):
			all = append(all, ges...)
		case errors.As(err, &ge):
			all = append(all, ge)
		default:
			if other == nil {
				other = err
			}
		}
	}
	if other != nil {
		return other
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Group < all[j].Group })
	return all
}
