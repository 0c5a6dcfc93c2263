package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	flex "flexmeasures"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/shard"
)

// newWALServer starts an httptest server over a WAL-backed store in
// dir. The returned stop function shuts the server and store down (so
// the dir can be reopened), and is safe to call twice.
func newWALServer(t *testing.T, dir string, shards int, fs persist.FS) (*httptest.Server, func()) {
	t.Helper()
	se := flex.NewSharded(shards, flex.WithWorkers(2), flex.WithSafe(true))
	wal, err := persist.OpenWAL(persist.Options{
		Dir:    dir,
		Router: shard.Router{Shards: shards},
		FS:     fs,
	})
	if err != nil {
		se.Close()
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewSharded(se, Options{Store: wal}))
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		srv.Close()
		wal.Close()
		se.Close()
	}
	t.Cleanup(stop)
	return srv, stop
}

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	closeDrained(resp)
	return resp
}

// TestResetSurvivesRestart pins the satellite requirement end to end:
// DELETE /v1/offers on a WAL-backed server resets the persistence too,
// so a restart cannot resurrect deleted offers — and offers ingested
// after the delete do survive.
func TestResetSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ndjson := testFleet(t, 40)

	srv, stop := newWALServer(t, dir, 2, nil)
	if resp, _ := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	if resp := doDelete(t, srv.URL+"/v1/offers"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	_, after := testFleet(t, 5)
	if resp, _ := post(t, srv.URL+"/v1/offers", bytes.NewReader(after)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-delete ingest: %d", resp.StatusCode)
	}
	stop()

	// Restart: only the five post-delete offers may exist.
	srv2, stop2 := newWALServer(t, dir, 2, nil)
	resp, body := get(t, srv2.URL+"/v1/offers")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"stored":5`) {
		t.Fatalf("after restart: %d %s, want stored 5", resp.StatusCode, body)
	}
	stop2()

	// And a restart under a different shard count still serves them:
	// the log carries the offers, not the layout.
	srv3, _ := newWALServer(t, dir, 4, nil)
	if _, body := get(t, srv3.URL+"/v1/offers"); !strings.Contains(string(body), `"stored":5`) {
		t.Fatalf("after resharded restart: %s, want stored 5", body)
	}
}

// TestServerDegradedReadOnly drives a WAL write failure through the
// HTTP surface: ingest and reset flip to 503 + Retry-After, reads and
// scheduling keep serving, and /healthz + /metrics report the state.
func TestServerDegradedReadOnly(t *testing.T) {
	ffs := &persist.FaultFS{Inner: persist.OS()}
	srv, _ := newWALServer(t, t.TempDir(), 2, ffs)
	_, ndjson := testFleet(t, 30)
	if resp, _ := post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson)); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: %d", resp.StatusCode)
	}

	// The disk dies.
	ffs.FailWriteAt = 1
	ffs.FailSyncAt = 1

	_, more := testFleet(t, 3)
	resp, body := post(t, srv.URL+"/v1/offers", bytes.NewReader(more))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest on dead disk: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After")
	}
	if !strings.Contains(string(body), "read-only") {
		t.Fatalf("degraded body %q does not say read-only", body)
	}
	// Sticky: the next attempt is refused before the body is read.
	if resp, _ := post(t, srv.URL+"/v1/offers", bytes.NewReader(more)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second ingest: %d, want 503", resp.StatusCode)
	}
	if resp := doDelete(t, srv.URL+"/v1/offers"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("reset on degraded store: %d, want 503", resp.StatusCode)
	}

	// Reads keep working off the intact in-memory state.
	if resp, body := post(t, srv.URL+"/v1/schedule", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule on degraded store: %d %s", resp.StatusCode, body)
	}
	if resp, body := get(t, srv.URL+"/v1/offers"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"stored":30`) {
		t.Fatalf("store size on degraded store: %d %s", resp.StatusCode, body)
	}
	if resp, body := get(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Fatalf("healthz: %d %s, want 200 + degraded", resp.StatusCode, body)
	}
	_, metrics := get(t, srv.URL+"/metrics")
	if !strings.Contains(string(metrics), "flexd_wal_degraded 1") {
		t.Fatal("metrics do not report flexd_wal_degraded 1")
	}
	if !strings.Contains(string(metrics), "flexd_degraded_rejects_total 3") {
		t.Fatalf("metrics rejects counter:\n%s", metrics)
	}
}

// TestScheduleBytesWALBacked pins that putting a WAL under the server
// does not perturb the serving bytes: the schedule body from a
// WAL-backed server — before and after a restart — is identical to the
// in-memory server's.
func TestScheduleBytesWALBacked(t *testing.T) {
	_, ndjson := testFleet(t, 40)
	dir := t.TempDir()

	memSE := flex.NewSharded(2, flex.WithWorkers(2), flex.WithSafe(true))
	defer memSE.Close()
	memSrv := httptest.NewServer(NewSharded(memSE, Options{}))
	defer memSrv.Close()
	post(t, memSrv.URL+"/v1/offers", bytes.NewReader(ndjson))
	_, want := post(t, memSrv.URL+"/v1/schedule", nil)

	srv, stop := newWALServer(t, dir, 2, nil)
	post(t, srv.URL+"/v1/offers", bytes.NewReader(ndjson))
	_, live := post(t, srv.URL+"/v1/schedule", nil)
	if !bytes.Equal(live, want) {
		t.Fatal("WAL-backed schedule bytes diverge from in-memory server")
	}
	stop()

	srv2, _ := newWALServer(t, dir, 2, nil)
	_, replayed := post(t, srv2.URL+"/v1/schedule", nil)
	if !bytes.Equal(replayed, want) {
		t.Fatal("replayed schedule bytes diverge from in-memory server")
	}
}
