// Package kvserver is stmkvd's request layer over the STM-backed
// key-value store. Every data request runs one (or, for batches, exactly
// one multi-key) transaction against a kvstore.Store, descriptors are
// borrowed from the store's pool per request, and an attached
// tuning.Runtime re-adapts the TM's lock-table geometry to the live
// traffic while the server runs.
//
// Two surfaces, HTTP/JSON (Handler) and the binary kvproto protocol
// (ServeProto), are thin codecs over one executor. Each decodes its wire
// form into a kvproto.Request and an absolute deadline, calls exec, and
// encodes the response. exec alone runs the brownout ladder, the
// lifecycle gate, the deadline checks, update admission and the store,
// and records the request-latency histograms. It reports failures as a
// cause, which each surface maps to its own status through one table:
//
//	cause         HTTP                  binary
//	not found     404 (Get, Delete)     OK, Found=false
//	bad request   400 (empty batch)     StatusError
//	unavailable   503 + Retry-After     StatusUnavailable   (lifecycle, brownout, failed durability wait)
//	deadline      504                   StatusDeadlineExceeded
//	exhausted     507                   StatusError         (arena full)
//
// A malformed HTTP request (bad key, body, limit or X-Timeout-Ms) is
// answered 400 by the codec, an oversized batch 413, before any gate; the
// binary codec likewise drops an undecodable frame's connection.
//
// HTTP endpoints:
//
//	GET    /kv/{key}          read one key            -> {"key":k,"val":v}
//	PUT    /kv/{key}          upsert (body: decimal)  -> {"inserted":bool}
//	DELETE /kv/{key}          remove                  -> {"deleted":true}
//	POST   /kv/{key}/cas      body {"old":o,"new":n}  -> {"ok":bool}
//	POST   /kv/{key}/add      body {"delta":d}        -> {"val":new}
//	POST   /batch             body {"ops":[...]}      -> {"results":[...]}
//	GET    /scan              full-table scan (one snapshot transaction)
//	                          ?limit=N caps pairs     -> {"keys":n,"pairs":[...]}
//	GET    /stats             TM counters + store size + durability state
//	GET    /tuning            live autotune trace
//	GET    /metrics           Prometheus exposition
//	GET    /debug/txtrace     transaction flight recorder
//	GET    /healthz           liveness (always 200 while the process runs)
//	GET    /readyz            readiness: 503 + Retry-After during WAL
//	                          replay, degraded read-only mode, or after a
//	                          failed recovery; 200 once serving normally
//
// Keys are decimal uint64 path segments; values are uint64. With
// Config.Durability set, mutating requests are written ahead to a
// commit-ordered log (see internal/wal) and, in group mode, acked only
// once durable; on boot the server replays the log in the background
// before flipping /readyz to 200.
package kvserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"strconv"
	"time"

	"tinystm/internal/admission"
	"tinystm/internal/cm"
	"tinystm/internal/core"
	"tinystm/internal/kvproto"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/resilience"
	"tinystm/internal/tuning"
	"tinystm/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// SpaceWords sizes the transactional arena. Default 1<<22.
	SpaceWords int
	// Shards and Buckets shape the store (powers of two). Defaults 16
	// and 64.
	Shards, Buckets uint64
	// Design, Clock and Geometry configure the TM. A zero Geometry
	// defaults to the deliberately modest (2^8, 0, 1) so a fresh server
	// visibly adapts under load.
	Design   core.Design
	Clock    core.ClockStrategy
	Geometry core.Params
	// CM is the initial contention-management policy (default Suicide).
	CM cm.Kind
	// Snapshots attaches the MVCC sidecar: all-Get /batch requests, Len
	// and the /scan endpoint then run as wait-free snapshot transactions
	// instead of abort-prone classic read-only ones. On by default in
	// cmd/stmkvd.
	Snapshots bool
	// SnapshotBudget is the sidecar's initial per-shard version budget
	// (zero: the mvcc default). Requires Snapshots.
	SnapshotBudget int
	// Autotune attaches a tuning.Runtime (on by default in cmd/stmkvd).
	Autotune bool
	// TuneCM additionally enables the runtime's adaptive policy
	// controller: the conflict-resolution policy becomes a live tuning
	// dimension next to the lock-table geometry. Requires Autotune.
	TuneCM bool
	// TuneSnapshots additionally enables the runtime's version-budget
	// controller: the sidecar's retained-version budget becomes a live
	// tuning dimension, metered by snapshot-too-old aborts. Requires
	// Autotune and Snapshots.
	TuneSnapshots bool
	// AdmissionWidth puts a token-bucket gate of that many concurrent
	// update transactions in front of the store (both HTTP and binary
	// surfaces); 0 disables the gate. Reads are never gated.
	AdmissionWidth int
	// TuneAdmission additionally enables the runtime's admission
	// controller: the gate width becomes a live tuning dimension walked
	// from the observed abort ratio. Requires Autotune and
	// AdmissionWidth > 0.
	TuneAdmission bool
	// BrownoutSLO arms overload brownout: when the per-period request
	// p99 (measured by the tuning runtime from the latency histogram)
	// exceeds this, the server sheds request classes in cost order —
	// scans first, then writes, reads last — until p99 recovers. Zero
	// disables. Requires Autotune (the runtime is the ladder's stepper).
	BrownoutSLO time.Duration
	// Period, Samples, MinPeriodCommits and Bounds mirror
	// tuning.RuntimeConfig.
	Period           time.Duration
	Samples          int
	MinPeriodCommits uint64
	Bounds           tuning.Bounds
	// Seed drives the tuner's randomized move selection.
	Seed uint64
	// Now and After are the runtime's injectable clocks (tests).
	Now   func() time.Time
	After func(time.Duration) <-chan time.Time
	// Durability selects the write-ahead-log ack mode: "off" (default —
	// no log), "async" (logged, acked before fsync) or "group" (acked
	// only after the commit's records are fsynced; concurrent commits
	// share one fsync). Requires Snapshots for checkpoint truncation.
	Durability string
	// WALDir is the log/checkpoint directory; required unless off.
	WALDir string
	// WALBatch is the flusher's batch-accumulation delay (0: flush as
	// soon as records appear). Larger values trade ack latency for fewer
	// fsyncs.
	WALBatch time.Duration
	// WALSegmentBytes sets the segment rotation size (0: wal default).
	WALSegmentBytes int64
	// CheckpointEvery is the background snapshot-checkpoint period; 0
	// disables checkpointing (the log then grows without truncation).
	CheckpointEvery time.Duration
	// WALFS overrides the log's filesystem (fault-injection tests);
	// nil means the real OS.
	WALFS wal.FS
	// TxTraceEvery is the flight recorder's sampling rate: one atomic
	// block in N is traced. 0 picks the default (64); negative disables
	// the recorder entirely.
	TxTraceEvery int
	// recoveryGate, when set by a test, holds boot recovery open (the
	// server stays in the starting state) until the channel is closed.
	recoveryGate chan struct{}
}

func (c Config) withDefaults() Config {
	if c.SpaceWords == 0 {
		c.SpaceWords = 1 << 22
	}
	if c.Shards == 0 {
		c.Shards = 16
	}
	if c.Buckets == 0 {
		c.Buckets = 64
	}
	if c.Geometry == (core.Params{}) {
		c.Geometry = core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1}
	}
	// Normalize: the budget controller cannot exist without the sidecar.
	// Folding the AND in here keeps every consumer — the runtime wiring
	// AND the /tuning report — on one effective value, so the endpoint
	// can never claim a tuning dimension that was silently disabled.
	if !c.Snapshots {
		c.TuneSnapshots = false
	}
	// Same normalization for the admission controller: no gate, nothing
	// to tune.
	if c.AdmissionWidth <= 0 {
		c.TuneAdmission = false
	}
	// Brownout needs the tuning runtime as its stepper: without Autotune
	// the ladder would be armed but frozen at off forever — normalize to
	// disabled so /stats never claims an overload defense that cannot
	// engage.
	if !c.Autotune {
		c.BrownoutSLO = 0
	}
	if c.Durability == "" {
		c.Durability = DurabilityOff
	}
	return c
}

// Server owns the TM, the store, (optionally) the tuning runtime and
// (optionally) the durability machinery.
type Server struct {
	cfg   Config
	tm    *core.TM
	store *kvstore.Store[*core.Tx]
	rt    *tuning.Runtime
	mux   *http.ServeMux
	start time.Time
	dur   *durability
	// gate is the update-admission token bucket, nil without
	// AdmissionWidth.
	gate *admission.Gate
	// met owns every instrument (histograms, registry, flight recorder,
	// shard heat); proto carries the binary listener's counters.
	met   *metrics
	proto protoStats
	// brown is the overload-shed ladder (nil without BrownoutSLO); shed
	// counts deadline and brownout refusals on both surfaces.
	brown *resilience.Brownout
	shed  shedStats
}

// validate rejects configurations the lower layers would panic on, so
// flag mistakes surface as clean errors from New.
func (c Config) validate() error {
	if c.SpaceWords < 1<<10 {
		return fmt.Errorf("kvserver: SpaceWords (%d) must be at least %d", c.SpaceWords, 1<<10)
	}
	if c.Shards == 0 || bits.OnesCount64(c.Shards) != 1 {
		return fmt.Errorf("kvserver: Shards (%d) must be a power of two", c.Shards)
	}
	if c.Buckets == 0 || bits.OnesCount64(c.Buckets) != 1 {
		return fmt.Errorf("kvserver: Buckets (%d) must be a power of two", c.Buckets)
	}
	if _, err := ParseDurability(c.Durability); err != nil {
		return err
	}
	if c.Durability != DurabilityOff && c.Durability != "" && c.WALDir == "" {
		return fmt.Errorf("kvserver: durability %q requires a WAL directory", c.Durability)
	}
	return nil
}

// New builds the TM, the store and the handler set; with cfg.Autotune it
// also starts the tuning runtime.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tm, err := core.New(core.Config{
		Space:          mem.NewSpace(cfg.SpaceWords),
		Locks:          cfg.Geometry.Locks,
		Shifts:         cfg.Geometry.Shifts,
		Hier:           cfg.Geometry.Hier,
		Design:         cfg.Design,
		Clock:          cfg.Clock,
		CM:             cfg.CM,
		Snapshots:      cfg.Snapshots,
		SnapshotBudget: cfg.SnapshotBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("kvserver: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		tm:    tm,
		store: kvstore.NewStore[*core.Tx](tm, cfg.Shards, cfg.Buckets),
		start: time.Now(),
	}
	if cfg.AdmissionWidth > 0 {
		s.gate = admission.New(cfg.AdmissionWidth)
	}
	// Instruments before the tuning runtime: the runtime differences the
	// request-latency histogram per period to stamp p50/p99 onto its
	// events.
	s.met = newMetrics(s)
	tm.SetObs(s.met.tmObs)
	s.store.SetShardHeat(s.met.heat)
	if cfg.BrownoutSLO > 0 {
		s.brown = resilience.NewBrownout(resilience.BrownoutConfig{SLO: cfg.BrownoutSLO})
	}
	if cfg.Autotune {
		admCfg := tuning.AdmissionConfig{Enable: cfg.TuneAdmission}
		if cfg.TuneAdmission {
			admCfg.Gate = s.gate
		}
		s.rt = tuning.NewRuntime(tm, tuning.RuntimeConfig{
			Tuner:            tuning.Config{Initial: cfg.Geometry, Bounds: cfg.Bounds, Seed: cfg.Seed},
			Period:           cfg.Period,
			Samples:          cfg.Samples,
			MinPeriodCommits: cfg.MinPeriodCommits,
			CM:               tuning.CMConfig{Enable: cfg.TuneCM},
			Snapshot:         tuning.SnapshotConfig{Enable: cfg.TuneSnapshots},
			Admission:        admCfg,
			Brownout:         tuning.BrownoutConfig{Enable: s.brown != nil, Brown: s.brown},
			// A daemon tunes forever: keep only a bounded window of
			// events in memory (/tuning serves its tail).
			TraceCap: traceCap,
			Latency:  s.met.reqAll,
			Now:      cfg.Now,
			After:    cfg.After,
		})
		if err := s.rt.Start(); err != nil {
			s.store.Close()
			return nil, err
		}
	}
	s.dur = &durability{
		mode:    cfg.Durability,
		fs:      cfg.WALFS,
		dir:     cfg.WALDir,
		recDone: make(chan struct{}),
	}
	s.startDurability()
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// TM exposes the underlying STM (tests, stats).
func (s *Server) TM() *core.TM { return s.tm }

// Store exposes the key-value store.
func (s *Server) Store() *kvstore.Store[*core.Tx] { return s.store }

// Runtime returns the attached tuning runtime, nil without Autotune.
func (s *Server) Runtime() *tuning.Runtime { return s.rt }

// Close stops the checkpointer and the write-ahead log, then the tuning
// runtime, and releases every pooled descriptor back to the TM (the
// server-side half of the Tx.Release contract: a shut-down server leaks
// no descriptor slots).
func (s *Server) Close() {
	s.closeDurability()
	if s.rt != nil {
		s.rt.Stop()
	}
	s.store.Close()
}

// Handler returns the HTTP surface: the data routes, each a codec over
// exec, and the observability routes, which answer in every lifecycle
// and brownout state.
func (s *Server) Handler() http.Handler { return s.mux }

// httpError answers a non-200 status; every 503 carries a Retry-After
// hint so pollers and load balancers back off politely.
func httpError(w http.ResponseWriter, msg string, code int) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, code)
}

func (s *Server) routes() {
	// Liveness and readiness are distinct on purpose: a server replaying
	// a large WAL, or degraded to read-only, is alive (don't restart it —
	// that only repeats the replay) but not ready (don't route writes to
	// it).
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if st := s.dur.state.Load(); st != stateReady {
			httpError(w, stateName(st), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("GET /kv/{key}", s.serveHTTP(kvproto.OpGet))
	s.mux.HandleFunc("PUT /kv/{key}", s.serveHTTP(kvproto.OpPut))
	s.mux.HandleFunc("DELETE /kv/{key}", s.serveHTTP(kvproto.OpDelete))
	s.mux.HandleFunc("POST /kv/{key}/cas", s.serveHTTP(kvproto.OpCAS))
	s.mux.HandleFunc("POST /kv/{key}/add", s.serveHTTP(kvproto.OpAdd))
	s.mux.HandleFunc("POST /batch", s.serveHTTP(kvproto.OpBatch))
	s.mux.HandleFunc("GET /scan", s.serveHTTP(kvproto.OpScan))
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /tuning", s.handleTuning)
	s.mux.Handle("GET /metrics", s.met.reg.Handler())
	s.mux.HandleFunc("GET /debug/txtrace", s.handleTxTrace)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// serveHTTP is the HTTP codec of one data op: decode, exec, encode. A
// malformed request is answered here (400, or 413 for an oversized
// batch) and never reaches exec.
func (s *Server) serveHTTP(op kvproto.Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := &kvproto.Request{Op: op}
		dl, err := decodeHTTP(r, req)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, errBatchTooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), code)
			return
		}
		s.answerHTTP(w, req, dl)
	}
}

// wireOp is the JSON form of one batch operation.
type wireOp struct {
	Op  string `json:"op"`
	Key uint64 `json:"key"`
	Val uint64 `json:"val,omitempty"`
	Old uint64 `json:"old,omitempty"`
}

var errBatchTooLarge = fmt.Errorf("batch exceeds %d ops", kvproto.MaxBatchOps)

// decodeHTTP fills req (whose Op the route chose) from r and returns the
// absolute deadline of its X-Timeout-Ms budget (zero: none).
func decodeHTTP(r *http.Request, req *kvproto.Request) (dl time.Time, err error) {
	d, err := resilience.ParseTimeout(r.Header.Get(resilience.TimeoutHeader))
	if err != nil {
		return dl, fmt.Errorf("bad %s: %w", resilience.TimeoutHeader, err)
	}
	if d > 0 {
		dl = time.Now().Add(d)
	}
	if req.Op <= kvproto.OpAdd { // the /kv/{key} routes
		if req.Key, err = strconv.ParseUint(r.PathValue("key"), 10, 64); err != nil {
			return dl, fmt.Errorf("bad key: %w", err)
		}
	}
	switch req.Op {
	case kvproto.OpPut:
		var val uint64 // scanned into a local: &req.Val would move req to the heap
		if _, err := fmt.Fscan(r.Body, &val); err != nil {
			return dl, fmt.Errorf("bad value (want a decimal uint64 body): %w", err)
		}
		req.Val = val
	case kvproto.OpCAS:
		var body struct{ Old, New uint64 }
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			return dl, fmt.Errorf("bad body: %w", err)
		}
		req.Old, req.Val = body.Old, body.New
	case kvproto.OpAdd:
		var body struct{ Delta uint64 }
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			return dl, fmt.Errorf("bad body: %w", err)
		}
		req.Val = body.Delta
	case kvproto.OpBatch:
		var body struct {
			Ops []wireOp `json:"ops"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			return dl, fmt.Errorf("bad body: %w", err)
		}
		if len(body.Ops) > kvproto.MaxBatchOps {
			return dl, errBatchTooLarge
		}
		req.Ops = make([]kvproto.BatchOp, len(body.Ops))
		for i, o := range body.Ops {
			kind, err := kvstore.ParseOpKind(o.Op)
			if err != nil {
				return dl, err
			}
			// The sub-op codes OpGet..OpAdd list the store's op kinds in order.
			req.Ops[i] = kvproto.BatchOp{Op: kvproto.OpGet + kvproto.Op(kind), Key: o.Key, Val: o.Val, Old: o.Old}
		}
	case kvproto.OpScan:
		if q := r.URL.Query().Get("limit"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 1 {
				return dl, errors.New("bad limit")
			}
			req.Limit = uint32(min(n, kvproto.MaxScanPairs))
		}
	}
	return dl, nil
}

// answerHTTP runs req through exec and writes the answer: the cause's
// status from the causes table with exec's message, or 200 with the op's
// JSON body.
func (s *Server) answerHTTP(w http.ResponseWriter, req *kvproto.Request, dl time.Time) {
	resp, c := s.exec(req, dl, surfHTTP)
	if c != causeOK {
		httpError(w, resp.Msg, causes[c].http)
		return
	}
	var body any
	switch req.Op {
	case kvproto.OpGet:
		body = map[string]uint64{"key": req.Key, "val": resp.Val}
	case kvproto.OpPut:
		body = map[string]bool{"inserted": resp.OK}
	case kvproto.OpDelete:
		body = map[string]bool{"deleted": true}
	case kvproto.OpCAS:
		body = map[string]bool{"ok": resp.OK}
	case kvproto.OpAdd:
		body = map[string]uint64{"val": resp.Val}
	case kvproto.OpBatch:
		body = map[string]any{"results": resp.Results}
	case kvproto.OpScan:
		pairs := resp.Pairs
		if pairs == nil {
			pairs = []kvproto.KV{}
		}
		body = map[string]any{"keys": resp.Total, "pairs": pairs, "snapshot": resp.Snapshot}
	}
	writeJSON(w, http.StatusOK, body)
}

// wireParams is the JSON form of a tunable triple.
type wireParams struct {
	Locks  uint64 `json:"locks"`
	Shifts uint   `json:"shifts"`
	Hier   uint64 `json:"hier"`
}

func toWireParams(p core.Params) wireParams {
	return wireParams{Locks: p.Locks, Shifts: p.Shifts, Hier: p.Hier}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.tm.Stats()
	minted, free := s.tm.DescriptorCounts()
	tooOld, _, _, _ := s.tm.SnapshotCounts()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"design":         s.tm.Design().String(),
		"clock":          s.tm.Clock().String(),
		"params":         toWireParams(s.tm.Params()),
		"cm":             s.tm.CM().String(),
		"cm_switches":    st.CMSwitches,
		"keys":           s.store.Len(),
		"commits":        st.Commits,
		"aborts":         st.Aborts,
		"extensions":     st.Extensions,
		"rollovers":      st.RollOvers,
		"reconfigs":      st.Reconfigs,
		"descriptors":    map[string]int{"minted": minted, "free": free},
		"snapshots": map[string]any{
			"enabled":                 s.tm.SnapshotsEnabled(),
			"version_budget":          s.tm.VersionBudget(),
			"versions_published":      st.VersionsPublished,
			"versions_trimmed":        st.VersionsTrimmed,
			"reads_live":              st.SnapshotLiveReads,
			"reads_sidecar":           st.SnapshotVersionReads,
			"aborts_snapshot_too_old": tooOld,
		},
		"durability": s.durabilityStats(st.RedoRecords),
		"admission":  s.admissionStats(),
		"proto":      s.proto.stats(),
		"brownout":   s.brownoutStats(),
		"deadline":   map[string]any{"shed": s.deadlineShedStats()},
	})
}

// admissionWidth returns the gate's live width, 0 without a gate.
func (s *Server) admissionWidth() int {
	if s.gate == nil {
		return 0
	}
	return s.gate.Width()
}

// admissionStats renders the update-admission gate for /stats.
func (s *Server) admissionStats() map[string]any {
	if s.gate == nil {
		return map[string]any{"enabled": false}
	}
	width, inflight, admitted, waited := s.gate.Stats()
	return map[string]any{
		"enabled":  true,
		"tuned":    s.cfg.TuneAdmission,
		"width":    width,
		"inflight": inflight,
		"admitted": admitted,
		"waited":   waited,
		"expired":  s.gate.Expired(),
	}
}

// wireEvent is the JSON form of one tuning period.
type wireEvent struct {
	Period     int        `json:"period"`
	Params     wireParams `json:"params"`
	Throughput float64    `json:"throughput"`
	Commits    uint64     `json:"commits"`
	Aborts     uint64     `json:"aborts"`
	Idle       bool       `json:"idle"`
	Move       string     `json:"move,omitempty"`
	Next       wireParams `json:"next"`
	CM         string     `json:"cm,omitempty"`
	NextCM     string     `json:"next_cm,omitempty"`
	Budget     int        `json:"budget,omitempty"`
	NextBudget int        `json:"next_budget,omitempty"`
	SnapTooOld uint64     `json:"snap_too_old,omitempty"`
	AdmWidth   int        `json:"adm_width,omitempty"`
	NextAdm    int        `json:"next_adm_width,omitempty"`
	Brownout   string     `json:"brownout,omitempty"`
	NextBrown  string     `json:"next_brownout,omitempty"`
	LatP50Ns   int64      `json:"lat_p50_ns,omitempty"`
	LatP99Ns   int64      `json:"lat_p99_ns,omitempty"`
	LatSamples uint64     `json:"lat_samples,omitempty"`
	Err        string     `json:"err,omitempty"`
	CMErr      string     `json:"cm_err,omitempty"`
	SnapErr    string     `json:"snap_err,omitempty"`
	AdmErr     string     `json:"adm_err,omitempty"`
}

// traceCap bounds the tuning runtime's retained event window on a
// long-running server; maxTuningEvents bounds one /tuning response
// (?limit=N requests fewer).
const (
	traceCap        = 4096
	maxTuningEvents = 512
)

func (s *Server) handleTuning(w http.ResponseWriter, r *http.Request) {
	if s.rt == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	limit := maxTuningEvents
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		if n < limit {
			limit = n
		}
	}
	events := s.rt.Trace()
	if len(events) > limit {
		events = events[len(events)-limit:]
	}
	out := make([]wireEvent, len(events))
	reconfigurations := 0
	for i, e := range events {
		we := wireEvent{
			Period:     e.Period,
			Params:     toWireParams(e.Params),
			Throughput: e.Throughput,
			Commits:    e.Commits,
			Aborts:     e.Aborts,
			Idle:       e.Idle,
			Next:       toWireParams(e.Next),
		}
		if !e.Idle {
			we.Move = e.Move.String()
			if e.Reversed {
				we.Move = "-" + we.Move
			}
		}
		if s.cfg.TuneCM {
			we.CM = e.CM.String()
			if e.CMSwitched {
				we.NextCM = e.NextCM.String()
			}
			if e.CMErr != nil {
				we.CMErr = e.CMErr.Error()
			}
		}
		if s.cfg.TuneSnapshots {
			we.Budget = e.Budget
			we.SnapTooOld = e.SnapTooOld
			if e.BudgetChanged {
				we.NextBudget = e.NextBudget
			}
			if e.SnapErr != nil {
				we.SnapErr = e.SnapErr.Error()
			}
		}
		if s.cfg.TuneAdmission {
			we.AdmWidth = e.AdmWidth
			if e.AdmChanged {
				we.NextAdm = e.NextAdmWidth
			}
			if e.AdmErr != nil {
				we.AdmErr = e.AdmErr.Error()
			}
		}
		if s.brown != nil {
			we.Brownout = e.Brownout.String()
			if e.BrownoutChanged {
				we.NextBrown = e.NextBrownout.String()
			}
		}
		if e.LatSamples > 0 {
			we.LatP50Ns = int64(e.LatP50)
			we.LatP99Ns = int64(e.LatP99)
			we.LatSamples = e.LatSamples
		}
		if e.Err != nil {
			we.Err = e.Err.Error()
		}
		if !e.Idle && e.Next != e.Params && e.Err == nil {
			reconfigurations++
		}
		out[i] = we
	}
	best, bestTp := s.rt.Best()
	st := s.tm.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":           true,
		"running":           s.rt.Running(),
		"current":           toWireParams(s.rt.Current()),
		"best":              toWireParams(best),
		"best_throughput":   bestTp,
		"reconfigurations":  reconfigurations,
		"reconfigs_total":   st.Reconfigs,
		"periods_total":     s.rt.Periods(),
		"cm":                s.tm.CM().String(),
		"cm_tuning":         s.cfg.TuneCM,
		"cm_switches":       s.rt.CMSwitches(),
		"cm_switches_total": st.CMSwitches,
		"snapshot_tuning":   s.cfg.TuneSnapshots,
		"version_budget":    s.tm.VersionBudget(),
		"budget_moves":      s.rt.BudgetMoves(),
		"admission_tuning":  s.cfg.TuneAdmission,
		"admission_width":   s.admissionWidth(),
		"admission_moves":   s.rt.AdmissionMoves(),
		"brownout_tuning":   s.brown != nil,
		"brownout_level":    s.brownoutLevelName(),
		"events":            out,
	})
}
