package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvproto"
	"tinystm/internal/kvstore"
	"tinystm/internal/mem"
	"tinystm/internal/obs"
	"tinystm/internal/txn"
	"tinystm/internal/wal"
)

// replayResult is what replaying a workload's own op stream through
// single layers in this process measured.
type replayResult struct {
	codecNs, allocs, bytes float64
	// storeNs is the mean kvstore call time per op kind.
	storeNs [nKinds]float64
}

// replayOps is how many of the workload's ops each replay runs.
const replayOps = 20000

// replayKV replays the workload's op stream through the kvproto codec
// and an in-process kvstore.Store configured like the daemon, with a
// span around every call, then times the codec alone.
func replayKV(w *workload, seed uint64, tr *tracer, buf int, now func() int64) (replayResult, error) {
	var res replayResult
	tm, err := core.New(core.Config{Space: mem.NewSpace(1 << 22), Locks: 1 << 16, Hier: 1, Snapshots: true})
	if err != nil {
		return res, err
	}
	st := kvstore.NewStore[*core.Tx](tm, 16, 64)
	defer st.Close()
	for lo := uint64(0); lo < w.keys; lo += kvproto.MaxBatchOps {
		var ops []kvstore.Op
		for k := lo; k < min(lo+kvproto.MaxBatchOps, w.keys); k++ {
			ops = append(ops, kvstore.Op{Kind: kvstore.OpPut, Key: k, Val: w.preloadVal(k)})
		}
		st.Apply(ops)
	}

	s := w.newStream(seed, w.workers+1, 1, w.newZipfs(), w.newRegs())
	reqs := make([]*kvproto.Request, 0, replayOps)
	resps := make([]*kvproto.Response, 0, replayOps)
	var storeNs, storeN [nKinds]int64
	var c codec
	timed := func(root uint64, name string, fn func()) {
		t0 := now()
		fn()
		tr.child(buf, name, t0, now(), root, root)
	}
	for i := 0; i < replayOps; i++ {
		o := s.next()
		req := protoRequest(uint64(i+1), &o)
		root := tr.newID()
		t0 := now()
		var dec *kvproto.Request
		var derr error
		timed(root, "kvproto.append_request", func() { derr = c.appendRequest(req) })
		if derr == nil {
			timed(root, "kvproto.decode_request", func() { dec, derr = c.decodeRequest() })
		}
		if derr != nil {
			return res, fmt.Errorf("replay codec: %w", derr)
		}
		var resp *kvproto.Response
		s0 := now()
		timed(root, "kvstore."+storeName(o.Kind), func() { resp = applyStore(st, dec) })
		storeNs[o.Kind] += now() - s0
		storeN[o.Kind]++
		timed(root, "kvproto.append_response", func() { derr = c.appendResponse(resp) })
		if derr == nil {
			timed(root, "kvproto.decode_response", func() { _, derr = c.decodeResponse() })
		}
		if derr != nil {
			return res, fmt.Errorf("replay codec: %w", derr)
		}
		tr.add(buf, span{Name: "replay.op", Start: t0, End: now(), ID: root, Req: root})
		reqs, resps = append(reqs, req), append(resps, resp)
	}
	for k := range storeNs {
		if storeN[k] > 0 {
			res.storeNs[k] = float64(storeNs[k]) / float64(storeN[k])
		}
	}
	res.codecNs, res.allocs, res.bytes, err = timeCodec(reqs, resps)
	return res, err
}

// storeName is the kvstore call an op kind makes.
func storeName(k kind) string {
	if k == kTransfer {
		return "apply"
	}
	return k.String()
}

// protoRequest is the wire request the client sends for o.
func protoRequest(id uint64, o *op) *kvproto.Request {
	req := &kvproto.Request{ID: id, Key: o.Key}
	switch o.Kind {
	case kGet:
		req.Op = kvproto.OpGet
	case kPut:
		req.Op, req.Val = kvproto.OpPut, o.Val
	case kCAS:
		req.Op, req.Old, req.Val = kvproto.OpCAS, o.Old, o.Val
	case kAdd:
		req.Op, req.Val = kvproto.OpAdd, o.Val
	case kTransfer:
		req.Op, req.Key = kvproto.OpBatch, 0
		req.Ops = []kvproto.BatchOp{{Op: kvproto.OpAdd, Key: o.Key, Val: o.Val}, {Op: kvproto.OpAdd, Key: o.Key2, Val: -o.Val}}
	case kScan:
		req.Op, req.Key = kvproto.OpScan, 0
	}
	return req
}

// applyStore runs a decoded request against the store and builds the
// response the server would send.
func applyStore(st *kvstore.Store[*core.Tx], req *kvproto.Request) *kvproto.Response {
	resp := &kvproto.Response{ID: req.ID, Op: req.Op, Status: kvproto.StatusOK}
	switch req.Op {
	case kvproto.OpGet:
		resp.Val, resp.Found = st.Get(req.Key)
	case kvproto.OpPut:
		resp.OK = st.Put(req.Key, req.Val)
	case kvproto.OpCAS:
		resp.OK = st.CAS(req.Key, req.Old, req.Val)
	case kvproto.OpAdd:
		resp.Val = st.Add(req.Key, req.Val)
	case kvproto.OpBatch:
		ops := make([]kvstore.Op, len(req.Ops))
		for i, b := range req.Ops {
			ops[i] = kvstore.Op{Kind: kvstore.OpAdd, Key: b.Key, Val: b.Val}
		}
		for _, r := range st.Apply(ops) {
			resp.Results = append(resp.Results, kvproto.BatchResult{Val: r.Val, Found: r.Found, OK: r.OK})
		}
	case kvproto.OpScan:
		pairs, total := st.Scan(kvproto.MaxScanPairs)
		resp.Total, resp.Snapshot = total, true
		for _, p := range pairs {
			resp.Pairs = append(resp.Pairs, kvproto.KV(p))
		}
	}
	return resp
}

// codecRounds repeats the codec-only pass so it runs long enough to
// time.
const codecRounds = 5

// codec frames and unframes messages as the client and server do:
// payload, then a CRC-checked frame, then back.
type codec struct {
	payload, frame, read []byte
	r                    bytes.Reader
}

func (c *codec) appendRequest(req *kvproto.Request) (err error) {
	if c.payload, err = kvproto.AppendRequest(c.payload[:0], req); err != nil {
		return err
	}
	c.frame, err = kvproto.AppendFrame(c.frame[:0], c.payload)
	return err
}

func (c *codec) appendResponse(resp *kvproto.Response) (err error) {
	if c.payload, err = kvproto.AppendResponse(c.payload[:0], resp); err != nil {
		return err
	}
	c.frame, err = kvproto.AppendFrame(c.frame[:0], c.payload)
	return err
}

// unframe reads back the frame last appended.
func (c *codec) unframe() (p []byte, err error) {
	c.r.Reset(c.frame)
	p, err = kvproto.ReadFrame(&c.r, c.read)
	c.read = p[:0]
	return p, err
}

func (c *codec) decodeRequest() (*kvproto.Request, error) {
	p, err := c.unframe()
	if err != nil {
		return nil, err
	}
	return kvproto.DecodeRequest(p)
}

func (c *codec) decodeResponse() (*kvproto.Response, error) {
	p, err := c.unframe()
	if err != nil {
		return nil, err
	}
	return kvproto.DecodeResponse(p)
}

// timeCodec encodes and decodes every recorded request and response,
// returning ns, allocations and frame bytes per op.
func timeCodec(reqs []*kvproto.Request, resps []*kvproto.Response) (ns, allocs, bytes float64, err error) {
	var c codec
	var m0, m1 runtime.MemStats
	var total int
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < codecRounds && err == nil; r++ {
		for i := 0; i < len(reqs) && err == nil; i++ {
			if err = c.appendRequest(reqs[i]); err == nil {
				_, err = c.decodeRequest()
			}
			total += len(c.frame)
			if err = c.appendResponse(resps[i]); err == nil {
				_, err = c.decodeResponse()
			}
			total += len(c.frame)
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(codecRounds * len(reqs))
	return float64(el.Nanoseconds()) / n, float64(m1.Mallocs-m0.Mallocs) / n, float64(total) / n, err
}

// walReplayOps bounds the WAL replay; each record waits for an fsync.
const walReplayOps = 2000

// replayWAL appends the workload's update ops as redo records to a
// fresh wal.Log from two goroutines, like two connections, and times
// each Append until its Pending resolves.
func replayWAL(w *workload, seed uint64, dir string, tr *tracer, buf int, now func() int64) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	lg, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		return 0, err
	}
	s := w.newStream(seed, w.workers+2, 1, w.newZipfs(), w.newRegs())
	var recs [][]txn.RedoOp
	for len(recs) < walReplayOps {
		o := s.next()
		switch o.Kind {
		case kPut, kCAS, kAdd:
			recs = append(recs, []txn.RedoOp{{Kind: txn.RedoPut, Key: o.Key, Val: o.Val}})
		case kTransfer:
			recs = append(recs, []txn.RedoOp{{Kind: txn.RedoPut, Key: o.Key, Val: o.Val}, {Kind: txn.RedoPut, Key: o.Key2, Val: -o.Val}})
		}
	}
	h := obs.NewHistogram()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	var mu sync.Mutex // guards the tracer buffer shared by both goroutines
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(recs); i += 2 {
				root := tr.newID()
				t0 := now()
				p := lg.Append(1, uint64(i+1), recs[i])
				t1 := now()
				errs[g] = p.Wait()
				t2 := now()
				h.Record(uint64(t2 - t0))
				if tr != nil {
					mu.Lock()
					tr.child(buf, "wal.append", t0, t1, root, root)
					tr.child(buf, "wal.wait", t1, t2, root, root)
					tr.add(buf, span{Name: "replay.wal", Start: t0, End: t2, ID: root, Req: root})
					mu.Unlock()
				}
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := lg.Close(); err != nil {
		return 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	snap := h.Snapshot()
	return float64(snap.Quantile(0.5)) / 1e3, nil
}
