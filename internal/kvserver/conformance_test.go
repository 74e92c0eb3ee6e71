package kvserver

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tinystm/internal/kvproto"
	"tinystm/internal/resilience"
	"tinystm/internal/wal"
)

// conformanceOps are the data ops the conformance table crosses with
// every condition, each aimed at key k.
var conformanceOps = []struct {
	name string
	req  func(k uint64) kvproto.Request
}{
	{"get", func(k uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpGet, Key: k} }},
	{"put", func(k uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpPut, Key: k, Val: 5} }},
	{"delete", func(k uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpDelete, Key: k} }},
	{"cas", func(k uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpCAS, Key: k, Old: 1, Val: 6} }},
	{"add", func(k uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpAdd, Key: k, Val: 2} }},
	{"batch", func(k uint64) kvproto.Request {
		return kvproto.Request{Op: kvproto.OpBatch, Ops: []kvproto.BatchOp{{Op: kvproto.OpPut, Key: k, Val: 7}, {Op: kvproto.OpGet, Key: k}}}
	}},
	{"batch-get", func(k uint64) kvproto.Request {
		return kvproto.Request{Op: kvproto.OpBatch, Ops: []kvproto.BatchOp{{Op: kvproto.OpGet, Key: k}}}
	}},
	{"scan", func(uint64) kvproto.Request { return kvproto.Request{Op: kvproto.OpScan} }},
}

// conformanceCase is one condition: how to build a server in it, the
// key the ops target, an optional deadline, and the cause (and, for a
// deadline shed, the stage) each op must end in.
type conformanceCase struct {
	name  string
	setup func(t *testing.T) *Server
	key   uint64
	// deadline, when set, gives the request an absolute deadline; the
	// request then enters each surface below its decoder, because a wire
	// budget cannot arrive already expired.
	deadline func() time.Time
	want     map[string]cause // by op name; missing ops expect causeOK
	stage    int              // shed stage of the causeDeadline ops
}

// TestSurfaceConformance crosses every data op with every condition
// exec distinguishes and checks the two surfaces agree: the HTTP status
// and the binary Status are the causes-table pair of the expected cause,
// every 503 carries Retry-After, failure messages are identical, and the
// shed and brownout counters move by the same amount on each surface.
func TestSurfaceConformance(t *testing.T) {
	// seeded is a ready server holding key 1 = 1.
	seeded := func(cfg Config) func(t *testing.T) *Server {
		return func(t *testing.T) *Server {
			if cfg.SpaceWords == 0 {
				cfg.SpaceWords = 1 << 16
			}
			cfg.Snapshots = true
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			if err := s.RecoveryWait(); err != nil {
				t.Fatal(err)
			}
			s.store.Put(1, 1)
			return s
		}
	}
	inState := func(st int32) func(t *testing.T) *Server {
		return func(t *testing.T) *Server {
			s := seeded(Config{})(t)
			s.dur.state.Store(st)
			return s
		}
	}
	brownout := func(rungs int) func(t *testing.T) *Server {
		return func(t *testing.T) *Server {
			s := seeded(Config{})(t)
			s.brown = testBrownout()
			escalate(s.brown, rungs)
			return s
		}
	}
	// The brownout ladder is cumulative: shed-writes sheds scans too.
	allUnavailable := map[string]cause{}
	allButGets := map[string]cause{}
	for _, op := range conformanceOps {
		allUnavailable[op.name] = causeUnavailable
		if op.name != "get" {
			allButGets[op.name] = causeUnavailable
		}
	}
	past := func() time.Time { return time.Now().Add(-time.Millisecond) }

	cases := []conformanceCase{
		{name: "ok", setup: seeded(Config{}), key: 1},
		{name: "not-found", setup: seeded(Config{}), key: 2,
			want: map[string]cause{"get": causeNotFound, "delete": causeNotFound}},
		{name: "expired", setup: seeded(Config{}), key: 1, deadline: past,
			want: map[string]cause{"put": causeDeadline, "delete": causeDeadline, "cas": causeDeadline,
				"add": causeDeadline, "batch": causeDeadline, "batch-get": causeDeadline, "scan": causeDeadline}},
		{name: "held-gate", key: 1,
			setup: func(t *testing.T) *Server {
				s := seeded(Config{AdmissionWidth: 1})(t)
				s.gate.Enter()
				t.Cleanup(s.gate.Exit)
				return s
			},
			deadline: func() time.Time { return time.Now().Add(20 * time.Millisecond) },
			want: map[string]cause{"put": causeDeadline, "delete": causeDeadline, "cas": causeDeadline,
				"add": causeDeadline, "batch": causeDeadline},
			stage: shedStageGate},
		{name: "shed-scans", setup: brownout(1), key: 1, want: map[string]cause{"scan": causeUnavailable}},
		{name: "shed-writes", setup: brownout(2), key: 1, want: allButGets},
		{name: "shed-all", setup: brownout(3), key: 1, want: allUnavailable},
		{name: "starting", setup: inState(stateStarting), key: 1, want: allUnavailable},
		{name: "degraded", setup: inState(stateDegraded), key: 1, want: map[string]cause{
			"put": causeUnavailable, "delete": causeUnavailable, "cas": causeUnavailable,
			"add": causeUnavailable, "batch": causeUnavailable, "batch-get": causeUnavailable}},
		{name: "failed", setup: inState(stateFailed), key: 1, want: allUnavailable},
		{name: "exhausted", key: 2,
			setup: func(t *testing.T) *Server {
				s := seeded(Config{SpaceWords: 1 << 10, Shards: 1, Buckets: 4})(t)
				fillArena(s)
				return s
			},
			want: map[string]cause{"get": causeNotFound, "put": causeExhausted, "delete": causeNotFound,
				"add": causeExhausted, "batch": causeExhausted}},
		{name: "durability-wait-failed", key: 1,
			setup: func(t *testing.T) *Server {
				fs := wal.NewMemFS()
				s := seeded(Config{Durability: DurabilityGroup, WALDir: "wal", WALFS: fs})(t)
				fs.FailSyncAt(1)
				return s
			},
			want: map[string]cause{"put": causeUnavailable, "delete": causeUnavailable, "cas": causeUnavailable,
				"add": causeUnavailable, "batch": causeUnavailable}},
	}
	// The expired case sheds single-key updates at the gate, the long
	// operations at the op stage.
	expiredStage := map[string]int{"batch": shedStageOp, "batch-get": shedStageOp, "scan": shedStageOp}

	for _, tc := range cases {
		for _, op := range conformanceOps {
			t.Run(tc.name+"/"+op.name, func(t *testing.T) {
				want := tc.want[op.name]
				stage := tc.stage
				if tc.name == "expired" {
					stage = shedStageGate
					if st, ok := expiredStage[op.name]; ok {
						stage = st
					}
				}
				req := op.req(tc.key)

				hs := tc.setup(t)
				hBefore := snapshotSheds(hs, surfHTTP)
				code, retryAfter, body := runHTTP(t, hs, req, tc.deadline)
				hDelta := snapshotSheds(hs, surfHTTP).minus(hBefore)

				ps := tc.setup(t)
				pBefore := snapshotSheds(ps, surfProto)
				resp := runProto(t, ps, req, tc.deadline)
				pDelta := snapshotSheds(ps, surfProto).minus(pBefore)

				if code != causes[want].http || resp.Status != causes[want].proto {
					t.Fatalf("HTTP %d / binary %v (%q), want the %d / %v pair",
						code, resp.Status, resp.Msg, causes[want].http, causes[want].proto)
				}
				if code == http.StatusServiceUnavailable && retryAfter == "" {
					t.Fatal("503 without Retry-After")
				}
				if resp.Status != kvproto.StatusOK && body != resp.Msg+"\n" {
					t.Fatalf("HTTP body %q, binary message %q", body, resp.Msg)
				}
				if hDelta != pDelta {
					t.Fatalf("counters moved differently: HTTP %+v, binary %+v", hDelta, pDelta)
				}
				var wantDelta shedCounts
				if want == causeDeadline {
					wantDelta.deadline[stage] = 1
				}
				if strings.HasPrefix(tc.name, "shed-") && want == causeUnavailable {
					wantDelta.brownout[opClass(req.Op)] = 1
				}
				if hDelta != wantDelta {
					t.Fatalf("counters moved %+v, want %+v", hDelta, wantDelta)
				}
			})
		}
	}
}

// shedCounts is one surface's view of the shed counters.
type shedCounts struct {
	deadline [nShedStages]uint64
	brownout [resilience.NumClasses]uint64
}

func snapshotSheds(s *Server, surf int) shedCounts {
	var c shedCounts
	for st := range c.deadline {
		c.deadline[st] = s.shed.deadline[surf][st].Load()
	}
	for cl := range c.brownout {
		c.brownout[cl] = s.shed.brownout[cl].Load()
	}
	return c
}

func (c shedCounts) minus(o shedCounts) shedCounts {
	for i := range c.deadline {
		c.deadline[i] -= o.deadline[i]
	}
	for i := range c.brownout {
		c.brownout[i] -= o.brownout[i]
	}
	return c
}

// runHTTP sends req through the HTTP surface: the full handler when it
// carries no deadline, answerHTTP (the codec below its decoder) when it
// does.
func runHTTP(t *testing.T, s *Server, req kvproto.Request, deadline func() time.Time) (code int, retryAfter, body string) {
	t.Helper()
	w := httptest.NewRecorder()
	if deadline != nil {
		s.answerHTTP(w, &req, deadline())
	} else {
		s.Handler().ServeHTTP(w, httpRequestFor(t, req))
	}
	return w.Code, w.Header().Get("Retry-After"), w.Body.String()
}

// httpRequestFor encodes req as the HTTP surface's request.
func httpRequestFor(t *testing.T, req kvproto.Request) *http.Request {
	t.Helper()
	path := fmt.Sprintf("/kv/%d", req.Key)
	switch req.Op {
	case kvproto.OpGet:
		return httptest.NewRequest("GET", path, nil)
	case kvproto.OpPut:
		return httptest.NewRequest("PUT", path, strings.NewReader(fmt.Sprint(req.Val)))
	case kvproto.OpDelete:
		return httptest.NewRequest("DELETE", path, nil)
	case kvproto.OpCAS:
		return httptest.NewRequest("POST", path+"/cas", strings.NewReader(fmt.Sprintf(`{"old":%d,"new":%d}`, req.Old, req.Val)))
	case kvproto.OpAdd:
		return httptest.NewRequest("POST", path+"/add", strings.NewReader(fmt.Sprintf(`{"delta":%d}`, req.Val)))
	case kvproto.OpBatch:
		ops := make([]wireOp, len(req.Ops))
		for i, o := range req.Ops {
			ops[i] = wireOp{Op: o.Op.String(), Key: o.Key, Val: o.Val, Old: o.Old}
		}
		b, err := json.Marshal(map[string]any{"ops": ops})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewRequest("POST", "/batch", strings.NewReader(string(b)))
	default:
		return httptest.NewRequest("GET", "/scan", nil)
	}
}

// runProto sends req through the binary surface: a real frame round trip
// when it carries no deadline, answerProto (the codec below its decoder)
// when it does.
func runProto(t *testing.T, s *Server, req kvproto.Request, deadline func() time.Time) *kvproto.Response {
	t.Helper()
	if deadline != nil {
		resp := s.answerProto(&req, deadline())
		return &resp
	}
	cli, srv := net.Pipe()
	defer cli.Close()
	go s.serveProtoConn(srv)
	req.ID = 99
	payload, err := kvproto.AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := kvproto.AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	go cli.Write(frame)
	raw, err := kvproto.ReadFrame(cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := kvproto.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// fillArena inserts fresh keys until the transactional arena refuses
// several in a row, so every later allocation fails too.
func fillArena(s *Server) {
	put := func(k uint64) (full bool) {
		defer func() { full = recover() != nil }()
		s.store.Put(k, 1)
		return false
	}
	for k, misses := uint64(1000), 0; misses < 8; k++ {
		if put(k) {
			misses++
		} else {
			misses = 0
		}
	}
}
