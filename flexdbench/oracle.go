package main

import (
	"bytes"
	"context"
	"fmt"

	flex "flexmeasures"
	"flexmeasures/internal/ingest"
	"flexmeasures/internal/server"
	"flexmeasures/internal/shard"
	"flexmeasures/internal/timeseries"
)

// The correctness gate. A mirror store replays every mutation the run
// sent flexd, in the same order, so it holds the same offers under the
// same sequence numbers; a stateless, non-incremental sharded engine
// then renders the expected response bodies through the server's own
// wire builders, and flexd's bodies must match them byte for byte.

// mirror is the client-side copy of flexd's store.
type mirror struct{ st *shard.Stores }

func newMirror() *mirror { return &mirror{st: shard.NewStores(shard.Router{Shards: 2})} }

// apply adds one NDJSON body exactly as flexd's ingest does: decoded
// (so the stored values are the wire round-trip) and merged with
// last-write-wins dedup.
func (m *mirror) apply(body []byte) error {
	offers, err := ingest.DecodeNDJSONSerial(bytes.NewReader(body), ingest.FirstError)
	if err != nil {
		return err
	}
	m.st.Add(offers)
	return nil
}

// snapshot returns the copy-on-write view of the store now; it stays
// valid (and unchanged) across later mutations.
func (m *mirror) snapshot() [][]shard.Entry { return m.st.Snapshot() }

// gp is the grouping every schedule and aggregate request of the
// benchmark asks for: flexd's defaults with groups capped at 64.
var gp = flex.GroupParams{ESTTolerance: 2, TFTolerance: -1, MaxGroupSize: 64}

// oracle renders expected bodies with a stateless engine.
type oracle struct{ se *flex.ShardedEngine }

func newOracle() *oracle { return &oracle{se: flex.NewSharded(2, flex.WithSafe(true))} }

func (o *oracle) close() { o.se.Close() }

func total(parts [][]shard.Entry) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

func (o *oracle) schedule(parts [][]shard.Entry, level int64) ([]byte, error) {
	target := timeseries.Constant(0, horizon, level)
	res, err := o.se.PipelineRouted(context.Background(), parts, target, flex.WithGrouping(gp))
	if err != nil {
		return nil, err
	}
	return encode(server.BuildScheduleResponse(total(parts), res, target, horizon, level))
}

func (o *oracle) measures(parts [][]shard.Entry) ([]byte, error) {
	tab, err := o.se.MeasuresRouted(context.Background(), parts)
	if err != nil {
		return nil, err
	}
	return encode(server.BuildMeasuresResponse(tab))
}

func (o *oracle) aggregate(parts [][]shard.Entry) ([]byte, error) {
	ags, err := o.se.AggregateRouted(context.Background(), parts, flex.WithGrouping(gp))
	if err != nil {
		return nil, err
	}
	return encode(server.BuildAggregateResponse(total(parts), ags))
}

func encode(v any) ([]byte, error) {
	var b bytes.Buffer
	err := server.EncodeResponse(&b, v)
	return b.Bytes(), err
}

// sameBody reports the first byte where got departs from want.
func sameBody(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-24, 0)
	return fmt.Errorf("%s body differs from the oracle at byte %d of %d (want %d bytes): got %q, want %q",
		what, i, len(got), len(want), clip(got, lo, i+24), clip(want, lo, i+24))
}

func clip(b []byte, lo, hi int) []byte {
	return b[min(lo, len(b)):min(hi, len(b))]
}
