// Command perfbench is the repository's benchmark: one seeded run of one
// workload against the stmkvd daemon (or, for stm-rbtree, the STM core in
// this process), printing every end-to-end metric with its unit and
// auditing every result. With -trace 1 it instead prints the per-layer
// metrics, each layer's self time from spans kept in memory, and the
// tracing overhead.
//
// Run it through run.sh, which builds stmkvd and this program from the
// tree:
//
//	bash perfbench/run.sh --workload kv-read --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is non-zero when any audit check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	stmkvd   string // the daemon binary built from the tree
	workDir  string // scratch space inside the checkout
	commit   string
}

// metric is one reported number; Note, when set, is printed beside it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// result is one run's outcome: metrics go into the JSON line, info is
// only printed.
type result struct {
	metrics   []metric
	info      []metric
	attempted uint64
	failed    uint64
	errs      []string
	nerrs     int
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: kv-read, kv-write-durable, kv-http, stm-rbtree")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "seconds of measurement")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.stmkvd, "stmkvd", "", "path of the stmkvd binary")
	flag.StringVar(&cfg.workDir, "workdir", "", "scratch directory for WAL and trace files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision, printed with the host facts")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, out io.Writer) error {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if w.surface != surfInproc && cfg.stmkvd == "" {
		return fmt.Errorf("--stmkvd is required for %s", w.name)
	}
	if cfg.workDir == "" {
		return fmt.Errorf("--workdir is required")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	if w.surface != surfInproc {
		// The generator shares the host's cores with the daemon. On one
		// P its goroutines batch onto one thread instead of bouncing
		// between cores the daemon needs; on a 2-core host closed-loop
		// throughput spread 20% across three runs on two Ps, 3% on one.
		runtime.GOMAXPROCS(1)
	}
	mode := "untraced: end-to-end metrics"
	if cfg.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)
	fmt.Fprintf(out, "run: workload=%s seed=%d seconds=%g %s\n", w.name, cfg.seed, cfg.seconds, mode)

	steal0, total0, err := cpuTimes()
	if err != nil {
		return err
	}
	var res *result
	if w.surface == surfInproc {
		res, err = runRBTree(w, cfg, out)
	} else {
		res, err = runKV(w, cfg, out)
	}
	if err != nil {
		return err
	}
	// Steal is time the hypervisor ran other guests on this host's
	// cores: when it is high, every timing of the run is inflated.
	if steal1, total1, err := cpuTimes(); err == nil {
		fmt.Fprintf(out, "host: steal %.2f%% of cpu time during the run (%d of %d ticks)\n",
			100*ratio(float64(steal1-steal0), float64(total1-total0)), steal1-steal0, total1-total0)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(out, "metric %-40s %14.6g %-5s", m.Name, m.Value, m.Unit)
		if cfg.trace {
			fmt.Fprintf(out, "  moves: %s", m.Note)
		}
		fmt.Fprintln(out)
	}
	for _, m := range res.info {
		fmt.Fprintf(out, "info   %-40s %14.6g %-5s  (%s)\n", m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Fprintf(out, "ops: attempted=%d failed=%d fail_ratio=%.6f (failed, refused, shed and dropped over attempted)\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))
	correct := res.nerrs == 0
	if correct {
		fmt.Fprintln(out, "audit: ok")
	} else {
		fmt.Fprintf(out, "audit: FAILED, %d violations; the first:\n", res.nerrs)
		for _, e := range res.errs {
			fmt.Fprintln(out, "  "+e)
		}
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jv, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.Name] = jv{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(res.attempted, 1), "failed": res.failed, "metrics": ms,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !correct {
		return fmt.Errorf("audit failed on %s", w.name)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phases splits --seconds between the measured phases: a warm-up,
// `rounds` alternations of a closed-loop window and a fixed-rate
// open-loop window, and the slo_rate ladder.
type phases struct {
	warm, closed, open, sloStep time.Duration
	rounds, sloSteps            int
}

// total is the measured time of all phases.
func (p phases) total() time.Duration {
	return p.warm + time.Duration(p.rounds)*(p.closed+p.open) + time.Duration(p.sloSteps)*p.sloStep
}

func splitSeconds(s float64) phases {
	d := func(f float64) time.Duration { return time.Duration(f * s * float64(time.Second)) }
	const rounds = 6
	const steps = 12 // slo_rate ladder rungs, 6.4% of the closed-loop rate apart
	return phases{warm: d(0.07), closed: d(0.27 / rounds), open: d(0.27 / rounds), rounds: rounds,
		sloStep: d(0.39 / steps), sloSteps: steps}
}

// setupReps is how many times an untraced run sets up, reporting the
// median: one set-up is too noisy to bound.
const setupReps = 3

func writeTrace(cfg runConfig, tr *tracer) (string, error) {
	path := filepath.Join(cfg.workDir, "trace-"+cfg.workload+".jsonl")
	return path, tr.writeJSONL(path)
}
