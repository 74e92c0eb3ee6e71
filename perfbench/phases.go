package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"tinystm/internal/obs"
)

// ungated are the end-to-end numbers an untraced run prints beside its
// gated metrics (see endToEnd).
var ungated = []string{"loadgen.latency_p99_us", "loadgen.slo_rate_ops_s", "loadgen.fail_ratio",
	"wal.recovery_s", "wal.bytes_per_user_byte"}

func pick(names []string, vals map[string]float64) []metric {
	var ms []spec
	for _, s := range perLayer {
		for _, n := range names {
			if s.Name == n {
				ms = append(ms, s)
			}
		}
	}
	return fill(ms, vals)
}

// runKV runs one daemon-backed workload.
func runKV(w *workload, cfg runConfig, out io.Writer) (*result, error) {
	r := newKVRun(w, cfg)
	defer r.shutdown()
	if n := runtime.NumCPU(); n >= 2 {
		if err := pin(os.Getpid(), []int{n - 1}); err != nil {
			return nil, err
		}
		r.daemonCPUs = cpuRange(0, n)
		fmt.Fprintf(out, "cpus: generator pinned to cpu %d, stmkvd on cpus 0-%d\n", n-1, n-1)
	}
	// The generator's own collections would land inside measured
	// windows; a larger heap target makes them rarer. (Its heap is not
	// measured: rss_peak_mb is the daemon's.)
	debug.SetGCPercent(400)
	r.model = newModel(w)
	r.eng = &engine{w: w, exec: r.exec, model: r.model, epoch: time.Now()}
	ph := splitSeconds(cfg.seconds)

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		r.shutdown()
		t0 := time.Now()
		if err := r.boot(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(out, "setup: %d keys preloaded; boot+preload seconds %.4f\n", w.keys, setups)

	zs, regs := w.newZipfs(), w.newRegs()
	streams := make([]*stream, w.workers)
	for i := range streams {
		streams[i] = w.newStream(cfg.seed, i, w.workers, zs, regs)
	}
	ol := w.newStream(cfg.seed, w.workers, 1, zs, regs)
	r.eng.closed(streams, ph.warm, 1)

	vals := map[string]float64{}
	var tr *tracer
	var lat openResult
	var cl closedResult
	var err error
	if !cfg.trace {
		if cl, lat, err = r.eng.rounds(streams, ol, w.latRate, ph.rounds, ph.closed, ph.open); err != nil {
			return nil, err
		}
	} else {
		tr = newTracer(w.workers+1, w.sampleEvery)
		vals["trace.overhead_ratio"], cl.perWindow = r.eng.overhead(out, streams, ph)
		r.eng.tr = tr
		for k := range r.calls {
			r.calls[k] = obs.NewHistogram()
		}
		before, err := fetchScrape(r.ctl, r.metricsURL())
		if err != nil {
			return nil, err
		}
		upd0 := r.updates.Load()
		if _, lat, err = r.eng.rounds(nil, ol, w.latRate, ph.rounds, 0, ph.open); err != nil {
			return nil, err
		}
		after, err := fetchScrape(r.ctl, r.metricsURL())
		if err != nil {
			return nil, err
		}
		kvLayerMetrics(vals, r, after.sub(before), float64(r.updates.Load()-upd0))
		r.eng.tr = nil
	}
	tput := cl.perWindow
	slo, trials, err := r.eng.sloSearch(ol, median(tput), ph.sloSteps, ph.sloStep)
	if err != nil {
		return nil, err
	}
	rss, err := r.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	reportOpenLoop(out, w, tput, lat, trials)
	openLoopMetrics(vals, lat, slo)

	if cfg.trace {
		rep, err := replayKV(w, cfg.seed, tr, w.workers, r.eng.now)
		if err != nil {
			return nil, err
		}
		vals["kvproto.codec_ns_per_op"], vals["kvproto.allocs_per_op"], vals["kvproto.bytes_per_op"] = rep.codecNs, rep.allocs, rep.bytes
		for _, k := range callOps {
			vals["kvstore.op_ns."+storeName(k)] = rep.storeNs[k]
		}
		if w.durable {
			if vals["wal.ack_wait_us"], err = replayWAL(w, cfg.seed, filepath.Join(cfg.workDir, "walreplay"), tr, w.workers, r.eng.now); err != nil {
				return nil, err
			}
		}
	}
	if vals["wal.recovery_s"], vals["wal.bytes_per_user_byte"], err = r.audit(); err != nil {
		return nil, err
	}
	vals["loadgen.fail_ratio"] = ratio(float64(r.eng.failed.Load()), float64(r.eng.attempted.Load()))
	if cfg.trace {
		if err := finishTrace(out, cfg, tr, vals); err != nil {
			return nil, err
		}
		return r.result(fill(perLayer, vals), nil), nil
	}
	vals["throughput_ops_s"] = median(tput)
	vals["latency_p50_us"] = windowQuantile(lat.samples, 0.5, 0.5)
	if w.callLatency {
		vals["latency_p50_us"] = windowQuantile(cl.samples, 0.5, 0.5)
	}
	vals["setup_s"] = median(setups)
	vals["rss_peak_mb"] = rss
	return r.result(fill(endToEnd, vals), pick(ungated, vals)), nil
}

func (r *kvRun) result(ms, info []metric) *result {
	n, errs := r.model.violations()
	return &result{metrics: ms, info: info, attempted: r.eng.attempted.Load(), failed: r.eng.failed.Load(), errs: errs, nerrs: n}
}

// overhead alternates untraced and traced closed-loop windows and
// returns the traced windows' throughput loss as a share of the
// untraced ones, and the untraced windows' rates. The spans it records
// are dropped: the self-time table covers the later phases.
func (e *engine) overhead(out io.Writer, streams []*stream, ph phases) (float64, []float64) {
	var base, traced []float64
	for i := 0; i < ph.rounds; i++ {
		e.tr = nil
		base = append(base, e.closed(streams, ph.closed, 1).perWindow[0])
		e.tr = newTracer(len(streams), e.w.sampleEvery)
		traced = append(traced, e.closed(streams, ph.closed, 1).perWindow[0])
	}
	e.tr = nil
	b, t := median(base), median(traced)
	fmt.Fprintf(out, "tracing overhead: closed-loop median %.1f op/s untraced, %.1f op/s traced: %.2f%% of %.1f\n",
		b, t, 100*(1-t/b), b)
	return 1 - t/b, base
}

// finishTrace prints the self-time table, writes the spans out and
// records the trace.* metrics.
func finishTrace(out io.Writer, cfg runConfig, tr *tracer, vals map[string]float64) error {
	spans := tr.spans()
	selfs := selfTimes(spans)
	printSelfTimes(out, selfs)
	for _, l := range selfs {
		vals["trace.self_us."+l.Layer] = l.MeanUs()
	}
	vals["trace.spans"] = float64(len(spans))
	path, err := writeTrace(cfg, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %d spans (one request in %d) written to %s\n", len(spans), tr.every, path)
	return nil
}

// reportOpenLoop prints the phases behind the open-loop metrics.
func reportOpenLoop(out io.Writer, w *workload, tp []float64, lat openResult, trials []openResult) {
	fmt.Fprintf(out, "closed loop (%d in flight): per-window op/s %.1f\n", w.workers, tp)
	fmt.Fprintf(out, "open loop at %.0f op/s: %d sent, %d failed; %d windows; window p50 median %.1f us; window p99 quartiles %.1f %.1f %.1f us; pooled p50 %.1f us, p99 %.1f us (%d samples); generator lag p99 %.1f us, backlog max %d\n",
		lat.rate, lat.sent, lat.failed, len(lat.samples), windowQuantile(lat.samples, 0.5, 0.5),
		windowQuantile(lat.samples, 0.99, 0.25), windowQuantile(lat.samples, 0.99, 0.5), windowQuantile(lat.samples, 0.99, 0.75),
		float64(lat.all.Quantile(0.5))/1e3, float64(lat.all.Quantile(0.99))/1e3, lat.all.Count,
		float64(lat.lag.Quantile(0.99))/1e3, lat.backlog)
	for _, t := range trials {
		fmt.Fprintf(out, "  slo rung %.0f op/s: median window p99 %.1f us (limit %v), failed %d, left queued %d, overflow %v\n",
			t.rate, windowQuantile(t.samples, 0.99, 0.5), w.sloP99, t.failed, t.leftover, t.overflow)
	}
}

// runRBTree runs the in-process stm-rbtree workload: closed loop only,
// as in the paper, with the tuner climbing from the bad geometry.
func runRBTree(w *workload, cfg runConfig, out io.Writer) (*result, error) {
	r := &rbRun{w: w}
	defer r.close()
	ph := splitSeconds(cfg.seconds)
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := r.build(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(out, "setup: tree of %d keys from [1, %d] at %v; build seconds %.4f\n", w.keys/2, w.keys, badGeometry, setups)
	for i := 0; i < w.workers; i++ {
		r.txs = append(r.txs, r.tm.NewTx())
	}
	r.eng = &engine{w: w, exec: r.exec, epoch: time.Now()}
	zs := w.newZipfs()
	streams := make([]*stream, w.workers)
	for i := range streams {
		streams[i] = w.newStream(cfg.seed, i, w.workers, zs, nil)
	}
	if err := r.startTuner(cfg.seed); err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	if !cfg.trace {
		// The whole measured time runs from the bad geometry: converging
		// is part of the cost the paper's tuner pays.
		c0 := r.tm.Stats().Commits
		t0 := time.Now()
		tp := r.eng.closed(streams, ph.total(), ph.rounds)
		vals["throughput_ops_s"] = float64(r.tm.Stats().Commits-c0) / time.Since(t0).Seconds()
		vals["latency_p50_us"] = windowQuantile(tp.samples, 0.5, 0.5)
		rss, err := selfPeakRSSMB()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "closed loop (%d threads): per-window tx/s %.1f; transaction p50 %.3f us, p99 %.3f us (window medians, one transaction in %d sampled)\n",
			w.workers, tp.perWindow, vals["latency_p50_us"], windowQuantile(tp.samples, 0.99, 0.5), w.sampleEvery)
		vals["setup_s"] = median(setups)
		vals["rss_peak_mb"] = rss
		return r.result(out, fill(endToEnd, vals)), nil
	}

	tr := newTracer(w.workers+1, w.sampleEvery)
	r.eng.closed(streams, ph.warm, 1)
	vals["trace.overhead_ratio"], _ = r.eng.overhead(out, streams, ph)
	r.eng.tr = tr
	o := obs.NewTMObs(nil) // the commit-latency histogram, traced runs only
	r.tm.SetObs(o)
	s0, h0 := r.tm.Stats(), o.CommitNs.Snapshot()
	r.eng.closed(streams, time.Duration(ph.rounds)*ph.open, 1)
	st, h1 := r.tm.Stats().Sub(s0), o.CommitNs.Snapshot()
	dh := h1.Sub(&h0)
	coreMetrics(vals, st, float64(dh.Quantile(0.5))/1e3, float64(dh.Quantile(0.99))/1e3)
	vals["loadgen.fail_ratio"] = ratio(float64(r.eng.failed.Load()), float64(r.eng.attempted.Load()))
	r.rt.Stop()
	vals["tuning.reconfigs"] = float64(r.tm.Stats().Reconfigs)
	vals["tuning.periods_to_best"] = float64(periodsToBest(r.rt.Trace()))
	best, bestTp := r.rt.Best()
	fmt.Fprintf(out, "tuning: %d periods, best %v at %.0f tx/s, final %v\n", r.rt.Periods(), best, bestTp, r.tm.Params())
	if err := finishTrace(out, cfg, tr, vals); err != nil {
		return nil, err
	}
	return r.result(out, fill(perLayer, vals)), nil
}

func (r *rbRun) result(out io.Writer, ms []metric) *result {
	r.rt.Stop()
	errs := r.audit()
	fmt.Fprintf(out, "tree: final geometry %v\n", r.tm.Params())
	return &result{metrics: ms, attempted: r.eng.attempted.Load(), failed: r.eng.failed.Load(), errs: errs, nerrs: len(errs)}
}
