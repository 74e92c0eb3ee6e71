package kvserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tinystm/internal/kvclient"
	"tinystm/internal/kvproto"
	"tinystm/internal/resilience"
)

// escalate pushes a ladder up n rungs with over-SLO evidence.
func escalate(b *resilience.Brownout, n int) {
	for i := 0; i < n; i++ {
		b.Step(time.Hour, 1<<20)
	}
}

// testBrownout is a ladder that escalates on a single hot period and
// never walks back on its own during a test.
func testBrownout() *resilience.Brownout {
	return resilience.NewBrownout(resilience.BrownoutConfig{
		SLO: time.Millisecond, EscalateAfter: 1, CalmAfter: 1 << 30, MinSamples: 1,
	})
}

func TestHTTPBadTimeoutHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{SpaceWords: 1 << 16})
	c := ts.Client()
	for _, bad := range []string{"bogus", "-5", "1.5", "999999999999"} {
		req, err := http.NewRequest("GET", ts.URL+"/kv/1", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(resilience.TimeoutHeader, bad)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s=%q answered %d, want 400", resilience.TimeoutHeader, bad, resp.StatusCode)
		}
	}
	// A valid budget on a fast request changes nothing.
	req, _ := http.NewRequest("PUT", ts.URL+"/kv/1", strings.NewReader("7"))
	req.Header.Set(resilience.TimeoutHeader, "5000")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline-bearing PUT answered %d", resp.StatusCode)
	}
}

// TestHTTPDeadlineShedAtGate holds the admission gate and checks a
// deadline-bearing update is refused 504 instead of queueing forever —
// the acceptance property that an expired request never reaches a
// worker.
func TestHTTPDeadlineShedAtGate(t *testing.T) {
	s, ts := newTestServer(t, Config{SpaceWords: 1 << 16, AdmissionWidth: 1})
	c := ts.Client()

	s.gate.Enter() // occupy the only slot
	req, _ := http.NewRequest("PUT", ts.URL+"/kv/9", strings.NewReader("1"))
	req.Header.Set(resilience.TimeoutHeader, "60")
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("held gate answered %d, want 504", resp.StatusCode)
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Fatalf("shed took %v; the gate queued a corpse", waited)
	}
	if got := s.shed.deadline[surfHTTP][shedStageGate].Load(); got != 1 {
		t.Fatalf("gate-stage shed counter = %d, want 1", got)
	}
	if s.gate.Expired() == 0 {
		t.Fatal("gate did not count the expired claim")
	}
	s.gate.Exit()

	// The gate is healthy afterwards: the same request sails through.
	req, _ = http.NewRequest("PUT", ts.URL+"/kv/9", strings.NewReader("1"))
	req.Header.Set(resilience.TimeoutHeader, "60")
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release PUT answered %d", resp.StatusCode)
	}

	_, val := scrape(t, c, ts.URL)
	if v, ok := val(`stmkvd_deadline_shed_total{stage="gate",surface="http"}`); !ok || v != 1 {
		t.Fatalf("metrics gate shed = (%v, %v), want 1", v, ok)
	}
	if v, ok := val("stmkvd_admission_expired_total"); !ok || v < 1 {
		t.Fatalf("metrics admission expired = (%v, %v)", v, ok)
	}
}

// TestHTTPDeadlineShedAtOp drives the op-stage checks directly with an
// already-expired deadline (the wire cannot carry one: budgets re-anchor
// at arrival): scans and batches must refuse to start.
func TestHTTPDeadlineShedAtOp(t *testing.T) {
	s, _ := newTestServer(t, Config{SpaceWords: 1 << 16})
	past := time.Now().Add(-time.Millisecond)

	w := httptest.NewRecorder()
	s.answerHTTP(w, &kvproto.Request{Op: kvproto.OpScan}, past)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired scan answered %d, want 504", w.Code)
	}

	w = httptest.NewRecorder()
	s.answerHTTP(w, &kvproto.Request{Op: kvproto.OpBatch, Ops: []kvproto.BatchOp{{Op: kvproto.OpGet, Key: 1}}}, past)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired batch answered %d, want 504", w.Code)
	}
	if got := s.shed.deadline[surfHTTP][shedStageOp].Load(); got != 2 {
		t.Fatalf("op-stage shed counter = %d, want 2", got)
	}
}

// TestHTTPBrownoutLadder walks the ladder through every rung and checks
// each class is shed exactly when its rung says so, with 503+Retry-After
// — satellite (b)'s contract — on every refusal.
func TestHTTPBrownoutLadder(t *testing.T) {
	s, err := New(Config{SpaceWords: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	s.brown = testBrownout() // installed before the listener exists
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	c := ts.Client()

	status := func(method, path, body string) (int, http.Header) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	if code, _ := status("PUT", "/kv/1", "5"); code != 200 {
		t.Fatalf("seed PUT: %d", code)
	}

	// shed-scans: scans die, reads and writes live.
	escalate(s.brown, 1)
	code, hdr := status("GET", "/scan", "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("scan under shed-scans: %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("brownout 503 missing Retry-After")
	}
	if code, _ := status("GET", "/kv/1", ""); code != 200 {
		t.Fatalf("read under shed-scans: %d", code)
	}
	if code, _ := status("PUT", "/kv/1", "6"); code != 200 {
		t.Fatalf("write under shed-scans: %d", code)
	}

	// shed-writes: batch counts as a write.
	escalate(s.brown, 1)
	if code, _ := status("PUT", "/kv/1", "7"); code != http.StatusServiceUnavailable {
		t.Fatalf("write under shed-writes: %d, want 503", code)
	}
	if code, _ := status("POST", "/batch", `{"ops":[{"op":"get","key":1}]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("batch under shed-writes: %d, want 503", code)
	}
	if code, _ := status("GET", "/kv/1", ""); code != 200 {
		t.Fatalf("read under shed-writes: %d", code)
	}

	// shed-all: reads go too, but observability stays up.
	escalate(s.brown, 1)
	if code, _ := status("GET", "/kv/1", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("read under shed-all: %d, want 503", code)
	}
	if code, _ := status("GET", "/stats", ""); code != 200 {
		t.Fatalf("/stats under shed-all: %d — observability must never brown out", code)
	}

	_, val := scrape(t, c, ts.URL)
	if v, ok := val(`stmkvd_brownout_state{state="shed-all"}`); !ok || v != 1 {
		t.Fatalf("brownout one-hot shed-all = (%v, %v), want 1", v, ok)
	}
	if v, ok := val(`stmkvd_brownout_state{state="off"}`); !ok || v != 0 {
		t.Fatalf("brownout one-hot off = (%v, %v), want 0", v, ok)
	}
	for _, class := range []string{"read", "write", "scan"} {
		if v, ok := val(`stmkvd_brownout_shed_total{class="` + class + `"}`); !ok || v < 1 {
			t.Fatalf("brownout shed counter for %s = (%v, %v)", class, v, ok)
		}
	}
}

// TestProtoDeadlineShedAtGate sends a deadline-flagged frame at a held
// gate and checks the wire answer is StatusDeadlineExceeded, not a
// stalled worker.
func TestProtoDeadlineShedAtGate(t *testing.T) {
	h := startProto(t, Config{AdmissionWidth: 1})
	if _, err := h.c.Put(1, 1); err != nil {
		t.Fatal(err)
	}

	h.srv.gate.Enter()
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, err := kvproto.AppendRequest(nil, &kvproto.Request{
		ID: 42, Op: kvproto.OpPut, Key: 2, Val: 2, TimeoutMs: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := kvproto.AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw, err := kvproto.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := kvproto.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 42 || resp.Status != kvproto.StatusDeadlineExceeded {
		t.Fatalf("held gate answered (id %d, %v, %q), want deadline-exceeded", resp.ID, resp.Status, resp.Msg)
	}
	if got := h.srv.shed.deadline[surfProto][shedStageGate].Load(); got != 1 {
		t.Fatalf("proto gate-stage shed counter = %d, want 1", got)
	}
	h.srv.gate.Exit()

	// The pipelined client still works once the gate frees up.
	if _, err := h.c.Put(3, 3); err != nil {
		t.Fatalf("post-release Put: %v", err)
	}
}

// TestProtoBrownoutSheds mirrors the HTTP ladder walk on the wire
// surface: shed ops answer StatusUnavailable, which the client maps to
// its retryable ErrUnavailable.
func TestProtoBrownoutSheds(t *testing.T) {
	srv, err := New(Config{SpaceWords: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.brown = resilience.NewBrownout(resilience.BrownoutConfig{
		SLO: time.Millisecond, EscalateAfter: 1, CalmAfter: 2, MinSamples: 1,
	})
	escalate(srv.brown, 1) // shed-scans before the listener starts
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go srv.ServeProto(lis)
	c := kvclient.New(lis.Addr().String(), kvclient.Options{})
	t.Cleanup(c.Close)

	if _, err := c.Put(1, 10); err != nil {
		t.Fatalf("write under shed-scans: %v", err)
	}
	if _, _, _, err := c.Scan(0); !errors.Is(err, kvclient.ErrUnavailable) {
		t.Fatalf("scan under shed-scans: %v, want ErrUnavailable", err)
	}
	if _, _, err := c.Get(1); err != nil {
		t.Fatalf("read under shed-scans: %v", err)
	}
	if srv.shed.brownout[resilience.ClassScan].Load() == 0 {
		t.Fatal("proto scan shed not counted")
	}

	// Walk back to off on calm evidence and the same ops succeed again.
	for i := 0; srv.brown.Level() != resilience.LevelOff; i++ {
		if i > 100 {
			t.Fatal("ladder never walked back on calm periods")
		}
		srv.brown.Step(0, 0)
	}
	if _, _, _, err := c.Scan(0); err != nil {
		t.Fatalf("scan after walk-back: %v", err)
	}
}

// TestProtoBadFrameIsolation is satellite (c): a desynced frame
// mid-pipeline kills exactly its own connection. A sibling connection's
// pipeline never notices, and the bad frame is counted.
func TestProtoBadFrameIsolation(t *testing.T) {
	h := startProto(t, Config{})
	before := h.srv.proto.badFrames.Load()

	// Connection A, raw: a valid Put, then a well-framed payload with a
	// junk op byte, then another valid Put the server must never run.
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var stream []byte
	good1, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 1, Op: kvproto.OpPut, Key: 100, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream, _ = kvproto.AppendFrame(stream, good1)
	junk := binary.LittleEndian.AppendUint64(nil, 2)
	junk = append(junk, 0xEE)
	stream, _ = kvproto.AppendFrame(stream, junk)
	good2, err := kvproto.AppendRequest(nil, &kvproto.Request{ID: 3, Op: kvproto.OpPut, Key: 101, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream, _ = kvproto.AppendFrame(stream, good2)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	// A gets its answers for the prefix, an error for the junk, then EOF
	// — never an answer for the post-desync frame.
	sawError := false
	for {
		raw, err := kvproto.ReadFrame(conn, nil)
		if err != nil {
			break
		}
		resp, err := kvproto.DecodeResponse(raw)
		if err != nil {
			t.Fatalf("undecodable response after desync: %v", err)
		}
		if resp.ID == 3 {
			t.Fatal("server executed a frame after the desync")
		}
		if resp.Status == kvproto.StatusError {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("desynced connection died without a diagnostic")
	}
	if h.srv.proto.badFrames.Load() != before+1 {
		t.Fatalf("bad frames %d -> %d, want +1", before, h.srv.proto.badFrames.Load())
	}

	// Connection B (the harness client) is a different pipeline: fully
	// unaffected, before and after A's death.
	for i := uint64(0); i < 50; i++ {
		if _, err := h.c.Put(i, i); err != nil {
			t.Fatalf("sibling connection broken by A's desync: %v", err)
		}
		if val, found, err := h.c.Get(i); err != nil || !found || val != i {
			t.Fatalf("sibling read (%d, %v, %v)", val, found, err)
		}
	}
}

// TestStatsResilienceBlocks checks /stats carries the new brownout and
// deadline blocks even on a server with neither configured.
func TestStatsResilienceBlocks(t *testing.T) {
	_, ts := newTestServer(t, Config{SpaceWords: 1 << 16})
	c := ts.Client()
	var st struct {
		Brownout struct {
			Enabled bool `json:"enabled"`
		} `json:"brownout"`
		Deadline struct {
			Shed map[string]map[string]uint64 `json:"shed"`
		} `json:"deadline"`
	}
	if code := doJSON(t, c, "GET", ts.URL+"/stats", "", &st); code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	if st.Brownout.Enabled {
		t.Fatal("brownout reported enabled without a ladder")
	}
	for _, surf := range []string{"http", "proto"} {
		stages, ok := st.Deadline.Shed[surf]
		if !ok {
			t.Fatalf("deadline shed block missing surface %q", surf)
		}
		for _, stage := range []string{"dequeue", "gate", "op"} {
			if _, ok := stages[stage]; !ok {
				t.Fatalf("deadline shed block missing %s/%s", surf, stage)
			}
		}
	}
}

// TestProtoDeadlineShedAtDequeue fills a connection's protoInflight op
// slots with updates parked at a held width-1 gate, then pipelines one
// more update with a 1 ms budget behind them. It waits for a free worker
// past its deadline, so the dequeue check must shed it: answered
// deadline-exceeded, counted at the dequeue stage, and never run.
func TestProtoDeadlineShedAtDequeue(t *testing.T) {
	const shedKey = 1 << 20
	h := startProto(t, Config{AdmissionWidth: 1})
	h.srv.gate.Enter() // occupy the only slot
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var stream []byte
	for i := uint64(0); i < protoInflight; i++ {
		if stream, err = kvproto.AppendRequestFrame(stream, &kvproto.Request{ID: i, Op: kvproto.OpPut, Key: i, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if stream, err = kvproto.AppendRequestFrame(stream, &kvproto.Request{
		ID: protoInflight, Op: kvproto.OpPut, Key: shedKey, Val: 1, TimeoutMs: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	// Every op slot holds an update waiting at the gate; the budgeted
	// update is next in line and its 1 ms runs out meanwhile.
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		if _, _, _, waited := h.srv.gate.Stats(); waited >= protoInflight {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("the op slots never filled")
		}
	}
	time.Sleep(50 * time.Millisecond)
	before := h.srv.shed.deadline[surfProto][shedStageDequeue].Load()
	h.srv.gate.Exit()

	br := bufio.NewReader(conn)
	var buf []byte
	shed := false
	for i := 0; i <= protoInflight; i++ {
		p, err := kvproto.ReadFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = p
		resp, err := kvproto.DecodeResponse(p)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case resp.ID == protoInflight && resp.Status == kvproto.StatusDeadlineExceeded:
			shed = true
		case resp.ID < protoInflight && resp.Status == kvproto.StatusOK:
		default:
			t.Fatalf("unexpected response (id %d, %v, %q)", resp.ID, resp.Status, resp.Msg)
		}
	}
	if !shed {
		t.Fatal("the budgeted update was not answered deadline-exceeded")
	}
	if got := h.srv.shed.deadline[surfProto][shedStageDequeue].Load() - before; got != 1 {
		t.Errorf("proto dequeue-stage shed counter rose by %d, want 1", got)
	}
	if _, found := h.srv.store.Get(shedKey); found {
		t.Error("the shed update ran: its key is in the store")
	}
}
