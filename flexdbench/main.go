// Command flexdbench is the flexd benchmark. It builds cmd/flexd from
// the tree it sits in, starts it as a separate process and drives it
// over HTTP with one closed-loop client (the end-to-end run), or
// replays the same inputs through each layer's public functions in
// process (the traced run, -trace 1), and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash flexdbench/run.sh --workload steady-churn --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and their purposes are listed in catalog.go and
// mirrored in BENCHMARK.json. Build outputs, flexd data directories,
// logs and span dumps go under .bench_build/ in the repository root.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

const buildDir = ".bench_build"

func main() {
	if os.Getenv(spinEnv) != "" {
		spin()
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line before the result: provenance, sample counts,
// per-kind failure accounts, and any correctness errors.
type report struct {
	Provenance map[string]any      `json:"provenance"`
	Workload   workloadInfo        `json:"workload"`
	Samples    map[string]int      `json:"samples"`
	Requests   ledger              `json:"requests"`
	Errors     []string            `json:"errors,omitempty"`
	Targets    map[string][]string `json:"layer_targets,omitempty"`
	Extra      map[string]float64  `json:"extra,omitempty"`
	Steal      float64             `json:"steal_pct"`
}

func run(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("flexdbench", flag.ContinueOnError)
	wl := fset.String("workload", "", "workload name (see catalog.go)")
	seed := fset.Int64("seed", 1, "input seed")
	seconds := fset.Int("seconds", 30, "measuring time in seconds (sets the round counts)")
	trace := fset.Int("trace", 0, "0: end-to-end run against flexd; 1: in-process traced run per layer")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	idx := slices.IndexFunc(workloads, func(w workloadInfo) bool { return w.Name == *wl })
	if idx < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "flexdbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		return 2
	}
	if _, err := os.Stat(filepath.Join("cmd", "flexd", "main.go")); err != nil {
		fmt.Fprintln(os.Stderr, "flexdbench: run from the repository root (cmd/flexd not found)")
		return 1
	}
	cfg := defaultConfig(*seed, *seconds)
	spinners := runtime.NumCPU()
	stopSpinners, err := startSpinners()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexdbench: no idle spinners:", err)
		spinners = 0
	} else {
		defer stopSpinners()
	}
	var (
		res *result
		rep *report
	)
	if *trace == 1 {
		res, rep, err = runTraced(cfg, *wl)
	} else {
		res, rep, err = runLive(cfg, *wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexdbench:", err)
		return 1
	}
	rep.Workload = workloads[idx]
	rep.Provenance = provenance(*wl, *seed, *seconds, *trace)
	rep.Provenance["idle_spinners"] = spinners
	for _, line := range []any{rep, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexdbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	return 0
}

// runLive is the end-to-end run.
func runLive(cfg config, wl string) (*result, *report, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, nil, err
	}
	bin, err := buildFlexd(".", buildDir)
	if err != nil {
		return nil, nil, err
	}
	in, err := genInputs(cfg, wl, cfg.lifecycles[wl], cfg.probeLives)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC() // leave the generator's garbage out of the timed phase
	runDir := filepath.Join(buildDir, "runs", fmt.Sprintf("%s-seed%d-%d", wl, cfg.seed, os.Getpid()))
	_ = os.RemoveAll(runDir)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, nil, err
	}
	r := newLiveRun(cfg, bin, runDir)
	defer r.cleanup()
	if err := r.runWorkload(wl, in); err != nil {
		return nil, nil, err
	}
	if err := r.verify(); err != nil {
		return nil, nil, err
	}
	res, rep := r.result()
	return res, rep, nil
}

// provenance records what produced a result: the machine, the
// toolchain, the tree under test, and the run's own settings.
func provenance(wl string, seed int64, seconds, trace int) map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit(),
		"source":     sourceDigest(),
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"workload":   wl,
	}
	if trace == 0 {
		p["flexd_flags"] = strings.Join(flexdArgs("127.0.0.1:<port>", "<dir>", fsyncOf(wl)), " ")
	}
	return p
}

// commit is the git revision when the tree is a checkout, else
// "unknown" (the source digest still identifies the code).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file of the module under
// test (the benchmark excluded), in path order.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "flexdbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if path != "go.mod" && !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
