package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The end-to-end run: flexd as a separate process, driven by one
// closed-loop client over one keep-alive connection per flexd (a run
// has at most two, and only one is ever busy). Every request is
// checked as it returns (status, counts, body shape); the last body of
// each query kind is kept and, after flexd has stopped, compared byte
// for byte with the stateless oracle over a mirror of the store.

// Request kinds, as the ledger and the latency distributions name them.
const (
	kIngest    = "ingest"   // new offers, 1000 per batch
	kResubmit  = "resubmit" // resubmissions of stored offers
	kSchedule  = "schedule"
	kMeasures  = "measures"
	kAggregate = "aggregate"
	kBoot      = "boot" // a flexd start that must reach healthy
)

// checkpoint is the last body of one query kind and the store it
// must be judged against.
type checkpoint struct {
	body  []byte
	ops   [][]byte // the flexd's mutations when the request was sent
	level int64    // schedule target level
}

// node is one flexd the run drives: the process, its data directory,
// the offers it must hold, and every NDJSON batch it accepted since it
// started empty. ops only grows by appending, so a prefix of it taken
// for a checkpoint stays valid.
type node struct {
	fsync  string
	main   bool // the workload's main flexd, whose peak RSS is reported
	p      *flexd
	dir    string
	stored int
	ops    [][]byte
}

type liveRun struct {
	cfg    config
	bin    string
	runDir string
	c      *client
	nodes  []*node
	dirs   int

	led     ledger
	lat     map[string]*samples
	setup   []float64 // seconds, one per set-up
	restart []float64 // seconds, one per reboot
	rss     []float64 // MB, VmHWM of each main flexd holding offers, read as it stops
	steal   float64   // host steal over the run, percent
	checks  map[string]*checkpoint
	errs    []error
}

func newLiveRun(cfg config, bin, runDir string) *liveRun {
	r := &liveRun{
		cfg: cfg, bin: bin, runDir: runDir,
		c: newClient(), led: ledger{}, lat: map[string]*samples{},
		checks: map[string]*checkpoint{},
	}
	for _, k := range []string{kIngest, kResubmit, kSchedule, kMeasures, kAggregate} {
		r.lat[k] = &samples{}
	}
	return r
}

// newNode declares a flexd of the run; it starts with bootFresh.
func (r *liveRun) newNode(fsync string, main bool) *node {
	n := &node{fsync: fsync, main: main}
	r.nodes = append(r.nodes, n)
	return n
}

// failf records a correctness failure; the run goes on so the ledger
// stays complete, but the result is marked incorrect.
func (r *liveRun) failf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Errorf(format, args...))
}

// freshDir returns a new, empty flexd data directory.
func (r *liveRun) freshDir() string {
	r.dirs++
	return filepath.Join(r.runDir, "data"+strconv.Itoa(r.dirs))
}

// boot starts n's flexd on its data directory and waits until it is
// healthy holding n.stored offers; it returns the exec-to-healthy time.
func (r *liveRun) boot(n *node) (time.Duration, error) {
	p, err := startFlexd(r.bin, n.dir, n.fsync, filepath.Join(r.runDir, "flexd.log"))
	if err != nil {
		return 0, err
	}
	n.p = p
	d, err := p.waitHealthy(r.c, n.stored)
	r.led.note(kBoot, err == nil)
	return d, err
}

// stop drains n's flexd, first reading the peak RSS of a main flexd
// that holds offers.
func (r *liveRun) stop(n *node) error {
	if n.main && n.stored > 0 {
		mb, err := n.p.peakRSSMB()
		if err != nil {
			return err
		}
		r.rss = append(r.rss, mb)
	}
	err := n.p.stop()
	r.c.closeIdle()
	n.p = nil
	return err
}

// post sends one NDJSON batch and checks the ingest counts.
func (r *liveRun) post(n *node, kind string, body []byte, count, replaced int, s *samples) {
	t0 := time.Now()
	code, resp, err := r.c.do("POST", n.p.base+"/v1/offers", body)
	d := time.Since(t0)
	ok := err == nil && code == http.StatusOK
	if ok {
		var ir struct{ Ingested, Replaced, Stored int }
		if jerr := json.Unmarshal(resp, &ir); jerr != nil {
			ok = false
			r.failf("%s: bad response %q", kind, clip(resp, 0, 80))
		} else {
			n.ops = append(n.ops, body)
			n.stored += count - replaced
			if ir.Ingested != count || ir.Replaced != replaced || ir.Stored != n.stored {
				r.failf("%s: ingested/replaced/stored = %d/%d/%d, want %d/%d/%d",
					kind, ir.Ingested, ir.Replaced, ir.Stored, count, replaced, n.stored)
			}
		}
	}
	r.note(kind, ok, d, s, err, code)
}

// query sends one read request, checks its status and body prefix and
// keeps the body as the kind's checkpoint.
func (r *liveRun) query(n *node, kind, method, path, prefix string, level int64, s *samples) {
	t0 := time.Now()
	code, body, err := r.c.do(method, n.p.base+path, nil)
	d := time.Since(t0)
	ok := err == nil && code == http.StatusOK
	if ok {
		if !bytes.HasPrefix(body, []byte(prefix)) || body[len(body)-1] != '\n' {
			r.failf("%s: body %q… does not start with %q", kind, clip(body, 0, 60), prefix)
		}
		cp := r.checks[kind]
		if cp == nil {
			cp = &checkpoint{}
			r.checks[kind] = cp
		}
		cp.body = append(cp.body[:0], body...)
		cp.ops, cp.level = n.ops[:len(n.ops):len(n.ops)], level
	}
	r.note(kind, ok, d, s, err, code)
}

func (r *liveRun) note(kind string, ok bool, d time.Duration, s *samples, err error, code int) {
	r.led.note(kind, ok)
	if !ok && len(r.errs) < 20 {
		r.failf("%s: status %d, error %v", kind, code, err)
	}
	if s == nil {
		return
	}
	if ok {
		s.add(d)
	} else {
		s.fail()
	}
}

func schedulePath(level int64) string {
	return "/v1/schedule?max-group=64&target=" + strconv.FormatInt(level, 10)
}

func (r *liveRun) schedule(n *node, level int64, s *samples) {
	r.query(n, kSchedule, "POST", schedulePath(level), fmt.Sprintf(`{"offers":%d,`, n.stored), level, s)
}

func (r *liveRun) measures(n *node, s *samples) {
	r.query(n, kMeasures, "GET", "/v1/measures", `{"names":["time",`, 0, s)
}

func (r *liveRun) aggregate(n *node, s *samples) {
	r.query(n, kAggregate, "POST", "/v1/aggregate?max-group=64", fmt.Sprintf(`{"offers":%d,`, n.stored), 0, s)
}

// verify replays each checkpoint's mutations into a mirror and compares
// its body with the oracle's.
func (r *liveRun) verify() error {
	orc := newOracle()
	defer orc.close()
	for _, k := range []string{kSchedule, kMeasures, kAggregate} {
		cp := r.checks[k]
		if cp == nil {
			r.failf("%s: no successful response to check", k)
			continue
		}
		mir := newMirror()
		for _, body := range cp.ops {
			if err := mir.apply(body); err != nil {
				return err
			}
		}
		parts := mir.snapshot()
		var want []byte
		var err error
		switch k {
		case kSchedule:
			want, err = orc.schedule(parts, cp.level)
		case kMeasures:
			want, err = orc.measures(parts)
		case kAggregate:
			want, err = orc.aggregate(parts)
		}
		if err == nil {
			err = sameBody(k, cp.body, want)
		}
		if err != nil {
			r.errs = append(r.errs, err)
		}
	}
	return nil
}

// cleanup stops every still-running flexd and removes the run's data.
func (r *liveRun) cleanup() {
	for _, n := range r.nodes {
		if n.p != nil {
			_ = n.p.stop()
			n.p = nil
		}
	}
	_ = os.RemoveAll(r.runDir)
}

// cpuClock is the machine's CPU time so far, from /proc/stat (zero
// where it is unavailable).
type cpuClock struct{ steal, total int64 }

func readCPUClock() cpuClock {
	var c cpuClock
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal
		v, _ := strconv.ParseInt(f[i], 10, 64)
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stealPct is the share of CPU time since c that the hypervisor gave to
// other tenants: load no change to flexd can account for.
func (c cpuClock) stealPct() float64 {
	now := readCPUClock()
	if now.total <= c.total {
		return 0
	}
	return 100 * float64(now.steal-c.steal) / float64(now.total-c.total)
}

// result folds the run into the result and report lines.
func (r *liveRun) result() (*result, *report) {
	rep := &report{Samples: map[string]int{}, Requests: r.led, Steal: r.steal}
	vals := map[string]float64{
		"setup_s":     median(r.setup),
		"peak_rss_mb": median(r.rss),
		"restart_s":   median(r.restart),
	}
	rep.Samples["setup_s"] = len(r.setup)
	rep.Samples["restart_s"] = len(r.restart)
	rep.Samples["peak_rss_mb"] = len(r.rss)
	rep.Samples["ingest_offers_per_s"] = len(*r.lat[kIngest])
	for _, k := range []string{kIngest, kResubmit, kSchedule, kMeasures, kAggregate} {
		s := *r.lat[k]
		p50, p90, err := p50p90(s)
		if err != nil {
			r.failf("%s: %v", k, err)
			p50, p90 = math.Inf(1), math.Inf(1)
		}
		vals[k+"_p50_ms"], vals[k+"_p90_ms"] = p50, p90
		rep.Samples[k+"_p50_ms"], rep.Samples[k+"_p90_ms"] = len(s), len(s)
	}
	// Throughput over the timed ingest batches: offers per second of
	// request time (a failed batch is +Inf time, so 0 throughput).
	var busy float64
	for _, v := range *r.lat[kIngest] {
		busy += v
	}
	vals["ingest_offers_per_s"] = float64(len(*r.lat[kIngest])*batchLen) / (busy / 1000)
	res := &result{Correct: len(r.errs) == 0, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = r.led.totals()
	for _, m := range e2eMetrics {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			// No valid measurement: report the worst value there is.
			r.failf("%s: no finite positive value (%v)", m.Name, v)
			res.Correct = false
			v = math.MaxFloat64
			if m.Better == "higher" {
				v = 0
			}
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for _, e := range r.errs {
		rep.Errors = append(rep.Errors, e.Error())
	}
	if res.Failed > 0 || len(rep.Errors) > 0 {
		res.Correct = false
	}
	return res, rep
}
