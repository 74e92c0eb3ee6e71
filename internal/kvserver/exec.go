package kvserver

import (
	"net/http"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvproto"
	"tinystm/internal/kvstore"
	"tinystm/internal/resilience"
)

// cause is why exec did not produce a plain result.
type cause uint8

const (
	causeOK cause = iota
	// causeNotFound: a Get or Delete found no key. Data on the binary
	// surface (Found=false), an error on HTTP.
	causeNotFound
	// causeBadRequest: an empty batch.
	causeBadRequest
	// causeUnavailable: the lifecycle gate, a brownout shed or a failed
	// durability wait refused the request. Retryable.
	causeUnavailable
	// causeDeadline: the request's budget ran out before its work started.
	causeDeadline
	// causeExhausted: the transactional arena is full.
	causeExhausted
	nCauses
)

// causes is the server's failure contract: the status each surface
// answers for each cause. Every HTTP 503 also carries Retry-After.
var causes = [nCauses]struct {
	http  int
	proto kvproto.Status
}{
	causeOK:          {http.StatusOK, kvproto.StatusOK},
	causeNotFound:    {http.StatusNotFound, kvproto.StatusOK},
	causeBadRequest:  {http.StatusBadRequest, kvproto.StatusError},
	causeUnavailable: {http.StatusServiceUnavailable, kvproto.StatusUnavailable},
	causeDeadline:    {http.StatusGatewayTimeout, kvproto.StatusDeadlineExceeded},
	causeExhausted:   {http.StatusInsufficientStorage, kvproto.StatusError},
}

// exec runs one data request (any op but OpStats) and is the only code
// in the server that does. dl is the request's absolute deadline (zero:
// none) and surf the surface it arrived on, which labels the shed
// counters and latency histograms. A cause other than causeOK comes with
// resp.Msg saying why.
//
// The request passes, in order: the brownout ladder, the lifecycle gate,
// the op-stage deadline check (batch and scan, the long operations), the
// update-admission gate under the deadline (every update, released when
// its transaction commits), and the store.
// Arena exhaustion and a failed durability wait surface as panics from
// the store and are turned into causes here.
func (s *Server) exec(req *kvproto.Request, dl time.Time, surf int) (resp kvproto.Response, c cause) {
	resp = kvproto.Response{ID: req.ID, Op: req.Op}
	// Brownout sheds whole request classes at the door, before any
	// transaction runs or gate slot is waited on: refusal is the point.
	class := opClass(req.Op)
	if s.brownSheds(class) {
		resp.Msg = brownoutMsg(class)
		return resp, causeUnavailable
	}
	if resp.Msg = s.lifecycleRefusal(class); resp.Msg != "" {
		return resp, causeUnavailable
	}
	t0 := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			derr, isDur := rec.(*kvstore.DurabilityError)
			switch {
			case rec == core.ErrSpaceExhausted:
				resp.Msg, c = core.ErrSpaceExhausted.Error(), causeExhausted
			case isDur:
				// The commit exists in memory but its log records never
				// reached disk: refuse the ack. The WAL's OnError has
				// already flipped the server degraded.
				resp.Msg, c = derr.Error(), causeUnavailable
			default:
				panic(rec)
			}
		}
		d := uint64(time.Since(t0))
		s.met.reqAll.Record(d)
		s.met.req[surf][req.Op-kvproto.OpGet].Record(d)
	}()

	update := class == resilience.ClassWrite
	switch req.Op {
	case kvproto.OpBatch:
		if len(req.Ops) == 0 {
			resp.Msg = "empty batch"
			return resp, causeBadRequest
		}
		update = !readOnlyOps(req.Ops)
		fallthrough
	case kvproto.OpScan:
		// A batch is one multi-key transaction and a scan walks the whole
		// table: neither starts for a client that already gave up.
		if expired(dl) {
			resp.Msg = s.shedDeadline(surf, shedStageOp)
			return resp, causeDeadline
		}
	}
	// committed is the store's hook for an admitted update: the store
	// calls it once the transaction commits, before it waits for
	// durability, and the gate slot goes back then. The gate bounds
	// running transactions; a committed one waiting for its fsync holds
	// no locks.
	var committed func()
	if update {
		if !s.enterUpdateUntil(dl) {
			resp.Msg = s.shedDeadline(surf, shedStageGate)
			return resp, causeDeadline
		}
		committed = s.gateExit
	}

	// The op codes OpGet..OpAdd list the store's op kinds in order.
	single := kvstore.Op{Kind: kvstore.OpKind(req.Op - kvproto.OpGet), Key: req.Key, Val: req.Val, Old: req.Old}
	switch req.Op {
	case kvproto.OpGet:
		r := s.store.Do(single, nil)
		if resp.Val, resp.Found = r.Val, r.Found; !resp.Found {
			resp.Msg = "key not found"
			return resp, causeNotFound
		}
	case kvproto.OpPut:
		resp.OK = s.store.Do(single, committed).OK
	case kvproto.OpDelete:
		if resp.Found = s.store.Do(single, committed).Found; !resp.Found {
			resp.Msg = "key not found"
			return resp, causeNotFound
		}
	case kvproto.OpCAS:
		resp.OK = s.store.Do(single, committed).OK
	case kvproto.OpAdd:
		resp.Val = s.store.Do(single, committed).Val
	case kvproto.OpBatch:
		ops := make([]kvstore.Op, len(req.Ops))
		for i, o := range req.Ops {
			ops[i] = kvstore.Op{Kind: kvstore.OpKind(o.Op - kvproto.OpGet), Key: o.Key, Val: o.Val, Old: o.Old}
		}
		res := s.store.DoBatch(ops, committed)
		resp.Results = make([]kvproto.BatchResult, len(res))
		for i, r := range res {
			resp.Results[i] = kvproto.BatchResult{Val: r.Val, Found: r.Found, OK: r.OK}
		}
	case kvproto.OpScan:
		limit := kvproto.MaxScanPairs
		if req.Limit > 0 && int(req.Limit) < limit {
			limit = int(req.Limit)
		}
		pairs, total := s.store.Scan(limit)
		resp.Total, resp.Snapshot = total, s.tm.SnapshotsEnabled()
		if len(pairs) > 0 {
			resp.Pairs = make([]kvproto.KV, len(pairs))
			for i, kv := range pairs {
				resp.Pairs[i] = kvproto.KV(kv)
			}
		}
	}
	return resp, causeOK
}

// opClass maps a data op onto its brownout class: Scan is the expensive
// full-table walk, Get a read, and everything else mutates — including a
// Batch, whose cost is write-like even when its ops are all Gets.
func opClass(op kvproto.Op) resilience.Class {
	switch op {
	case kvproto.OpGet:
		return resilience.ClassRead
	case kvproto.OpScan:
		return resilience.ClassScan
	default:
		return resilience.ClassWrite
	}
}

// lifecycleRefusal is the lifecycle gate: "" when the server's state
// admits a request of class c, else the refusal. A degraded server still
// serves reads and scans (committed memory is intact) but refuses
// everything that mutates.
func (s *Server) lifecycleRefusal(c resilience.Class) string {
	switch s.dur.state.Load() {
	case stateReady:
		return ""
	case stateDegraded:
		if c != resilience.ClassWrite {
			return ""
		}
		return "degraded: write-ahead log failed; serving reads only"
	case stateFailed:
		return "recovery failed; see /stats"
	default: // stateStarting
		return "recovering write-ahead log"
	}
}

// readOnlyOps reports whether a batch is all Gets (and therefore runs as
// an ungated snapshot read, exactly like Apply's own read-only path).
func readOnlyOps(ops []kvproto.BatchOp) bool {
	for _, op := range ops {
		if op.Op != kvproto.OpGet {
			return false
		}
	}
	return true
}
