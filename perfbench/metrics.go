package main

import "tinystm/internal/txn"

// spec names one metric of BENCHMARK.json.
type spec struct {
	Name, Unit string
	// Better is "higher" or "lower".
	Better string
	// Moves says which end-to-end metric, on which workload, a per-layer
	// metric should move; BENCHMARK.json has no field for it, so traced
	// runs print it beside the value.
	Moves string
}

// endToEnd lists the metrics every workload reports on an untraced run,
// with their bounds in BENCHMARK.json. The fixed-rate p99, the
// slo_rate search, the failure ratio, recovery time and WAL bytes per
// user byte are printed on every untraced run too but are not among
// them: on a shared 2-core host their run-to-run spread exceeded the
// largest bound a benchmark may set (see loadgen.* and wal.* below).
var endToEnd = []spec{
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// Per-layer label sets.
var (
	callOps  = []kind{kGet, kPut, kCAS, kAdd, kTransfer, kScan}
	protoOps = []kind{kGet, kPut, kAdd, kTransfer, kScan}
	// traceLayers are the span-name prefixes the benchmark records.
	traceLayers = []string{"loadgen", "kvclient", "httpclient", "kvproto", "kvstore", "wal", "core", "replay"}
)

// perLayer lists the metrics every workload reports on a traced run.
// A layer a workload does not exercise reads 0.
var perLayer = func() []spec {
	var ms []spec
	add := func(unit, better, moves string, names ...string) {
		for _, n := range names {
			ms = append(ms, spec{Name: n, Unit: unit, Better: better, Moves: moves})
		}
	}
	const guard = "nothing: a validity guard; if it grows, the run measured the host's scheduler"
	add("us", "lower", guard, "loadgen.lag_p99_us")
	add("count", "lower", guard, "loadgen.backlog_max")
	add("ratio", "lower", "every metric of every workload: failed, refused, shed and dropped ops over attempted", "loadgen.fail_ratio")
	add("us", "lower", "itself: end-to-end p99 at the fixed rate on kv-*, the lower quartile of 0.1 s windows (ungated)", "loadgen.latency_p99_us")
	add("1/s", "higher", "itself: the highest offered rate meeting the p99 limit with no growing backlog on kv-* (ungated)", "loadgen.slo_rate_ops_s")
	for _, k := range callOps {
		add("us", "lower", "latency_p50_us on every kv-* workload",
			"kvclient.call_us."+k.String()+".p50", "kvclient.call_us."+k.String()+".p99")
	}
	add("count", "lower", "latency_p50_us and loadgen.fail_ratio on every kv-* workload", "kvclient.retries", "kvclient.conn_errors")
	const codec = "throughput_ops_s on kv-read, little on kv-write-durable, nothing on stm-rbtree"
	add("ns", "lower", codec, "kvproto.codec_ns_per_op")
	add("count", "lower", codec, "kvproto.allocs_per_op")
	add("B", "lower", codec, "kvproto.bytes_per_op")
	for _, k := range protoOps {
		add("us", "lower", "throughput_ops_s and latency_p50_us on kv-read and kv-write-durable",
			"kvserver.req_us.proto."+k.String()+".p50", "kvserver.req_us.proto."+k.String()+".p99")
	}
	for _, k := range callOps {
		add("us", "lower", "throughput_ops_s and latency_p50_us on kv-http",
			"kvserver.req_us.http."+k.String()+".p50", "kvserver.req_us.http."+k.String()+".p99")
	}
	for _, k := range callOps {
		add("us", "lower", "throughput_ops_s and latency_p50_us on kv-read (proto) and kv-http (http): client p50 minus server p50",
			"kvserver.wire_gap_us."+k.String())
	}
	add("count", "lower", "throughput_ops_s, latency_p50_us and loadgen.fail_ratio on kv-read and kv-http", "kvserver.err_ops", "kvserver.shed")
	const adm = "loadgen.latency_p99_us on kv-write-durable; nothing on kv-read, which carries few updates"
	add("us", "lower", adm, "admission.wait_us.p50", "admission.wait_us.p99")
	add("ratio", "lower", adm, "admission.waited_ratio")
	const store = "latency_p50_us on kv-write-durable and throughput_ops_s on kv-read"
	for _, k := range callOps {
		add("ns", "lower", store, "kvstore.op_ns."+storeName(k))
	}
	add("ratio", "lower", store, "kvstore.retry_ratio")
	const stm = "throughput_ops_s on stm-rbtree and loadgen.latency_p99_us on kv-write-durable"
	add("us", "lower", stm, "core.commit_us.p50", "core.commit_us.p99")
	add("ratio", "lower", stm, "core.abort_ratio")
	for c := 0; c < txn.NAbortKinds; c++ {
		add("ratio", "lower", stm, "core.aborts_per_commit."+txn.AbortKind(c).String())
	}
	add("ratio", "lower", stm, "core.extensions_per_commit")
	add("ratio", "lower", "loadgen.latency_p99_us, loadgen.fail_ratio and rss_peak_mb on kv-write-durable; nothing on kv-http",
		"mvcc.versions_per_commit", "mvcc.sidecar_read_ratio", "mvcc.too_old_per_scan")
	const wal = "latency_p50_us and loadgen.slo_rate_ops_s on kv-write-durable; zero on kv-read"
	add("us", "lower", wal, "wal.flush_us.p50", "wal.flush_us.p99")
	add("count", "higher", wal, "wal.batch_ops.p50")
	add("ratio", "lower", wal, "wal.syncs_per_ack")
	add("us", "lower", wal, "wal.ack_wait_us")
	add("ratio", "lower", "itself: bytes in the WAL directory over acked key and value bytes, kv-write-durable (ungated)", "wal.bytes_per_user_byte")
	add("s", "lower", "itself: restart on the run's WAL until /readyz answers, kv-write-durable (ungated)", "wal.recovery_s")
	add("count", "lower", "throughput_ops_s on stm-rbtree", "tuning.reconfigs", "tuning.periods_to_best")
	add("ratio", "lower", "nothing: throughput lost to tracing, traced over untraced closed-loop windows", "trace.overhead_ratio")
	add("count", "higher", "nothing: spans kept for the self-time table", "trace.spans")
	for _, l := range traceLayers {
		add("us", "lower", "where the traced workload's time goes: the layer's span time minus its child spans, per span", "trace.self_us."+l)
	}
	return ms
}()

// fill returns the listed metrics with values from vals (0 if absent).
func fill(list []spec, vals map[string]float64) []metric {
	out := make([]metric, len(list))
	for i, s := range list {
		out[i] = metric{Name: s.Name, Value: vals[s.Name], Unit: s.Unit, Note: s.Moves}
	}
	return out
}

// kvLayerMetrics derives the daemon's layer metrics from the /metrics
// difference ds over the traced fixed-rate window.
func kvLayerMetrics(vals map[string]float64, r *kvRun, ds scrape, updates float64) {
	surf := "proto"
	if r.w.surface == surfHTTP {
		surf = "http"
	}
	for _, k := range callOps {
		s := r.calls[k].Snapshot()
		if s.Count == 0 {
			continue
		}
		p50 := float64(s.Quantile(0.5)) / 1e3
		vals["kvclient.call_us."+k.String()+".p50"] = p50
		vals["kvclient.call_us."+k.String()+".p99"] = float64(s.Quantile(0.99)) / 1e3
		if h := ds.hist("stmkvd_request_seconds", "op", k.String(), "surface", surf); h.count > 0 {
			vals["kvserver.wire_gap_us."+k.String()] = p50 - 1e6*h.quantile(0.5)
		}
	}
	for _, sf := range []string{"proto", "http"} {
		for _, k := range callOps {
			if h := ds.hist("stmkvd_request_seconds", "op", k.String(), "surface", sf); h.count > 0 {
				vals["kvserver.req_us."+sf+"."+k.String()+".p50"] = 1e6 * h.quantile(0.5)
				vals["kvserver.req_us."+sf+"."+k.String()+".p99"] = 1e6 * h.quantile(0.99)
			}
		}
	}
	for _, c := range r.clients {
		vals["kvclient.retries"] += float64(c.ResilienceStats().Retries)
	}
	vals["kvclient.conn_errors"] = float64(r.connErrs.Load())
	vals["kvserver.err_ops"] = ds.get("stmkvd_proto_err_ops_total") + float64(r.httpErrs.Load())
	vals["kvserver.shed"] = ds.total("stmkvd_deadline_shed_total") + ds.total("stmkvd_brownout_shed_total")
	adm := ds.hist("stmkvd_admission_wait_seconds")
	vals["admission.wait_us.p50"], vals["admission.wait_us.p99"] = 1e6*adm.quantile(0.5), 1e6*adm.quantile(0.99)
	vals["admission.waited_ratio"] = ratio(ds.get("stmkvd_admission_waited_total"), ds.get("stmkvd_admission_admitted_total"))
	vals["kvstore.retry_ratio"] = ratio(ds.total("stmkvd_shard_aborts_total"), ds.total("stmkvd_shard_ops_total"))

	commit := ds.hist("stm_commit_seconds")
	var st txn.Stats
	st.Commits = uint64(ds.get("stm_commits_total"))
	for c := 0; c < txn.NAbortKinds; c++ {
		st.AbortsByKind[c] = uint64(ds.get("stm_aborts_total", "cause", txn.AbortKind(c).String()))
		st.Aborts += st.AbortsByKind[c]
	}
	st.Extensions = uint64(ds.get("stm_extensions_total"))
	coreMetrics(vals, st, 1e6*commit.quantile(0.5), 1e6*commit.quantile(0.99))

	commits := float64(st.Commits)
	vals["mvcc.versions_per_commit"] = ratio(ds.get("stm_versions_published_total"), commits)
	side, live := ds.get("stm_snapshot_reads_sidecar_total"), ds.get("stm_snapshot_reads_live_total")
	vals["mvcc.sidecar_read_ratio"] = ratio(side, side+live)
	vals["mvcc.too_old_per_scan"] = ratio(ds.get("stm_snapshot_too_old_total"),
		ds.hist("stmkvd_request_seconds", "op", "scan", "surface", surf).count)
	flush := ds.hist("stmkvd_wal_flush_seconds")
	vals["wal.flush_us.p50"], vals["wal.flush_us.p99"] = 1e6*flush.quantile(0.5), 1e6*flush.quantile(0.99)
	vals["wal.batch_ops.p50"] = ds.hist("stmkvd_wal_batch_ops").quantile(0.5)
	vals["wal.syncs_per_ack"] = ratio(ds.get("stmkvd_wal_syncs_total"), updates)
}

// coreMetrics derives the core.* metrics from a window's STM counters.
func coreMetrics(vals map[string]float64, st txn.Stats, commitP50, commitP99 float64) {
	c := float64(st.Commits)
	vals["core.commit_us.p50"], vals["core.commit_us.p99"] = commitP50, commitP99
	vals["core.abort_ratio"] = ratio(float64(st.Aborts), c+float64(st.Aborts))
	for k := 0; k < txn.NAbortKinds; k++ {
		vals["core.aborts_per_commit."+txn.AbortKind(k).String()] = ratio(float64(st.AbortsByKind[k]), c)
	}
	vals["core.extensions_per_commit"] = ratio(float64(st.Extensions), c)
}

// openLoopMetrics records the generator's guards and the ungated
// end-to-end numbers of a fixed-rate phase and an slo_rate search.
func openLoopMetrics(vals map[string]float64, lat openResult, slo float64) {
	vals["loadgen.lag_p99_us"] = float64(lat.lag.Quantile(0.99)) / 1e3
	vals["loadgen.backlog_max"] = float64(lat.backlog)
	vals["loadgen.latency_p99_us"] = windowQuantile(lat.samples, 0.99, 0.25)
	vals["loadgen.slo_rate_ops_s"] = slo
}
