package main

import (
	"context"
	"path/filepath"
	"testing"

	"flexmeasures/internal/persist"
)

func TestCountingFS(t *testing.T) {
	dir := t.TempDir()
	c := newCountingFS(persist.OS())
	log, err := c.Create(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 20, 5} {
		if _, err := log.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	tmp := filepath.Join(dir, "wal-0000000000000002.snap.tmp")
	snap, err := c.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	snap.Write(make([]byte, 7))
	snap.Sync()
	snap.Close()
	if err := c.Rename(tmp, filepath.Join(dir, "wal-0000000000000002.snap")); err != nil {
		t.Fatal(err)
	}
	got := c.stats()
	if got.logBytes != 35 || got.syncs != 3 || got.snapshots != 1 || len(c.syncTimes()) != 2 {
		t.Fatalf("stats = %+v, %d log syncs; want 35 log bytes (the snapshot's 7 not among them), 3 syncs of which 2 on the log, 1 snapshot", got, len(c.syncTimes()))
	}
	if d := got.sub(got); d != (fsStats{}) {
		t.Fatalf("stats minus itself = %+v", d)
	}
}

// TestCountingFSUnderWAL checks the counts the traced run reports for
// a known WAL sequence: fsync-always syncs once per batch, and a
// snapshot every 100 records publishes one snapshot per 100.
func TestCountingFSUnderWAL(t *testing.T) {
	fl, err := genFleet(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	c := newCountingFS(persist.OS())
	w, err := persist.OpenWAL(persist.Options{
		Dir: t.TempDir(), FS: c, Fsync: persist.FsyncAlways,
		SnapshotEvery: 100, SyncSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 300; lo += 50 {
		if _, _, err := w.Add(context.Background(), fl.offers[lo:lo+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := c.stats()
	if got.snapshots != 3 {
		t.Fatalf("snapshots = %d, want 3", got.snapshots)
	}
	// 6 request-path syncs and one per snapshot file; sealing a
	// segment may add more, never fewer.
	if got.syncs < 9 {
		t.Fatalf("syncs = %d, want at least 9", got.syncs)
	}
}
