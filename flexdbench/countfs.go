package main

import (
	"strings"
	"sync"
	"time"

	"flexmeasures/internal/persist"
)

// countingFS wraps a persist.FS and counts what the WAL does to it: the
// bytes written to log segments and the time spent writing and syncing
// them, every sync (snapshots included), and published snapshots. It is
// safe for the WAL's background snapshot writer.
type countingFS struct {
	persist.FS
	mu       sync.Mutex
	st       fsStats
	logSyncs []float64 // ms per log-segment sync
}

type fsStats struct {
	logBytes         int64
	logWriteMS       float64
	syncs, snapshots int64
}

func (a fsStats) sub(b fsStats) fsStats {
	return fsStats{
		logBytes: a.logBytes - b.logBytes, logWriteMS: a.logWriteMS - b.logWriteMS,
		syncs: a.syncs - b.syncs, snapshots: a.snapshots - b.snapshots,
	}
}

// syncTimes returns the duration of every log-segment sync so far.
func (c *countingFS) syncTimes() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.logSyncs...)
}

func newCountingFS(inner persist.FS) *countingFS { return &countingFS{FS: inner} }

func (c *countingFS) stats() fsStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

func (c *countingFS) Create(name string) (persist.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, snap: strings.Contains(name, ".snap")}, nil
}

// Rename counts a snapshot as published when its temporary file is
// renamed into place.
func (c *countingFS) Rename(oldname, newname string) error {
	err := c.FS.Rename(oldname, newname)
	if err == nil && strings.HasSuffix(newname, ".snap") {
		c.mu.Lock()
		c.st.snapshots++
		c.mu.Unlock()
	}
	return err
}

type countingFile struct {
	persist.File
	fs   *countingFS
	snap bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if !f.snap {
		f.fs.mu.Lock()
		f.fs.st.logBytes += int64(n)
		f.fs.st.logWriteMS += ms
		f.fs.mu.Unlock()
	}
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.st.syncs++
	if !f.snap {
		f.fs.logSyncs = append(f.fs.logSyncs, ms)
	}
	return err
}
