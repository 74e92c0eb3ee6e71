package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tinystm/internal/kvclient"
	"tinystm/internal/kvproto"
	"tinystm/internal/obs"
)

// kvPair is one scanned pair on either surface.
type kvPair struct {
	Key uint64 `json:"key"`
	Val uint64 `json:"val"`
}

// kvRun is one run of a daemon-backed workload.
type kvRun struct {
	w      *workload
	cfg    runConfig
	d      *daemon
	walDir string
	// daemonCPUs are the cores stmkvd may use (nil: unpinned).
	daemonCPUs []int
	ctl        *http.Client // control plane: readiness and /metrics
	data       *http.Client // the kv-http workload's two connections
	clients    []*kvclient.Client
	model      *model
	eng        *engine

	// calls[k] times the client call of each op kind (traced runs).
	calls [nKinds]*obs.Histogram
	// userBytes is acked key and value bytes; updates counts acked
	// update requests; httpErrs counts non-2xx answers.
	userBytes, updates, httpErrs, connErrs atomic.Uint64
}

func newKVRun(w *workload, cfg runConfig) *kvRun {
	r := &kvRun{w: w, cfg: cfg,
		ctl: &http.Client{Timeout: 30 * time.Second},
		data: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: w.conns, MaxIdleConnsPerHost: w.conns, DisableCompression: true}},
	}
	if w.durable {
		r.walDir = filepath.Join(cfg.workDir, "wal")
	}
	for k := range r.calls {
		r.calls[k] = obs.NewHistogram()
	}
	return r
}

func (r *kvRun) daemonArgs() []string {
	args := append([]string(nil), r.w.daemonArgs...)
	if r.w.durable {
		args = append(args, "-durability", "group", "-wal-dir", r.walDir)
	}
	return args
}

// boot starts a fresh daemon (on a fresh WAL directory) and preloads it.
func (r *kvRun) boot() error {
	if r.walDir != "" {
		if err := os.RemoveAll(r.walDir); err != nil {
			return err
		}
	}
	d, err := startDaemon(r.cfg.stmkvd, r.daemonArgs(), r.daemonCPUs, r.ctl)
	if err != nil {
		return err
	}
	r.d = d
	r.clients = make([]*kvclient.Client, r.w.conns)
	for i := range r.clients {
		r.clients[i] = kvclient.New(d.protoAddr, kvclient.Options{})
	}
	return r.preload()
}

// shutdown closes the clients and stops the daemon.
func (r *kvRun) shutdown() {
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = nil
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
	r.data.CloseIdleConnections()
}

// preload writes every key's initial value in batches, two in flight.
func (r *kvRun) preload() error {
	const batch = kvproto.MaxBatchOps
	var wg sync.WaitGroup
	errs := make([]error, len(r.clients))
	for ci, c := range r.clients {
		wg.Add(1)
		go func(ci int, c *kvclient.Client) {
			defer wg.Done()
			for lo := uint64(ci * batch); lo < r.w.keys; lo += uint64(len(r.clients) * batch) {
				hi := min(lo+batch, r.w.keys)
				ops := make([]kvproto.BatchOp, 0, hi-lo)
				for k := lo; k < hi; k++ {
					ops = append(ops, kvproto.BatchOp{Op: kvproto.OpPut, Key: k, Val: r.w.preloadVal(k)})
				}
				if _, err := c.Batch(ops); err != nil {
					errs[ci] = fmt.Errorf("preload: %w", err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	r.userBytes.Store(16 * r.w.keys) // this daemon's preload only
	return errors.Join(errs...)
}

// readBack fetches every key's value through batched Gets.
func (r *kvRun) readBack() (table []uint64, present []bool, err error) {
	table, present = make([]uint64, r.w.keys), make([]bool, r.w.keys)
	c := r.clients[0]
	for lo := uint64(0); lo < r.w.keys; lo += kvproto.MaxBatchOps {
		hi := min(lo+kvproto.MaxBatchOps, r.w.keys)
		ops := make([]kvproto.BatchOp, 0, hi-lo)
		for k := lo; k < hi; k++ {
			ops = append(ops, kvproto.BatchOp{Op: kvproto.OpGet, Key: k})
		}
		res, err := c.Batch(ops)
		if err != nil {
			return nil, nil, fmt.Errorf("read back: %w", err)
		}
		for i, x := range res {
			table[lo+uint64(i)], present[lo+uint64(i)] = x.Val, x.Found
		}
	}
	return table, present, nil
}

func (r *kvRun) exec(w int, o *op, id uint64) error {
	t0 := r.eng.now()
	var err error
	if r.w.surface == surfHTTP {
		err = r.execHTTP(o, t0)
	} else {
		err = r.execProto(r.clients[w%len(r.clients)], o, t0)
	}
	if r.eng.tr != nil {
		t1 := r.eng.now()
		layer := "kvclient."
		if r.w.surface == surfHTTP {
			layer = "httpclient."
		}
		r.eng.tr.child(w, layer+o.Kind.String(), t0, t1, id, id)
		r.calls[o.Kind].Record(uint64(t1 - t0))
	}
	if err != nil && errors.Is(err, kvclient.ErrConn) {
		r.connErrs.Add(1)
	}
	if err == nil && o.Kind != kGet && o.Kind != kScan {
		r.updates.Add(1)
		n := uint64(16) // key and value
		if o.Kind == kTransfer {
			n = 32
		}
		r.userBytes.Add(n)
	}
	return err
}

func (r *kvRun) execProto(c *kvclient.Client, o *op, t0 int64) error {
	m := r.model
	switch o.Kind {
	case kGet:
		v, found, err := c.Get(o.Key)
		if err != nil {
			return err
		}
		m.get(o.Key, v, found)
	case kPut:
		if _, err := c.Put(o.Key, o.Val); err != nil {
			return err
		}
		m.write(o.Key, o.Val, t0, r.eng.now())
	case kCAS:
		ok, err := c.CAS(o.Key, o.Old, o.Val)
		if err != nil {
			return err
		}
		m.cas(o, ok, t0, r.eng.now())
	case kAdd:
		v, err := c.Add(o.Key, o.Val)
		if err != nil {
			return err
		}
		m.add(o.Key, o.Val, v)
	case kTransfer:
		res, err := c.Batch([]kvproto.BatchOp{
			{Op: kvproto.OpAdd, Key: o.Key, Val: o.Val},
			{Op: kvproto.OpAdd, Key: o.Key2, Val: -o.Val},
		})
		if err != nil {
			return err
		}
		if len(res) != 2 {
			m.fail("transfer: %d results, want 2", len(res))
		}
		m.transfer(o)
	case kScan:
		pairs, total, _, err := c.Scan(0)
		if err != nil {
			return err
		}
		ps := make([]kvPair, len(pairs))
		for i, p := range pairs {
			ps[i] = kvPair(p)
		}
		m.scan(ps, total)
	}
	return nil
}

// httpDo sends one request and decodes a 200 answer's JSON into out.
func (r *kvRun) httpDo(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, "http://"+r.d.httpAddr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := r.data.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		r.httpErrs.Add(1)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func (r *kvRun) execHTTP(o *op, t0 int64) error {
	m := r.model
	key := "/kv/" + strconv.FormatUint(o.Key, 10)
	switch o.Kind {
	case kGet:
		var out struct{ Val uint64 }
		if err := r.httpDo("GET", key, nil, &out); err != nil {
			return err
		}
		m.get(o.Key, out.Val, true)
	case kPut:
		var out struct{ Inserted bool }
		if err := r.httpDo("PUT", key, strconv.AppendUint(nil, o.Val, 10), &out); err != nil {
			return err
		}
		m.write(o.Key, o.Val, t0, r.eng.now())
	case kCAS:
		body, _ := json.Marshal(map[string]uint64{"Old": o.Old, "New": o.Val})
		var out struct{ OK bool }
		if err := r.httpDo("POST", key+"/cas", body, &out); err != nil {
			return err
		}
		m.cas(o, out.OK, t0, r.eng.now())
	case kAdd:
		body, _ := json.Marshal(map[string]uint64{"Delta": o.Val})
		var out struct{ Val uint64 }
		if err := r.httpDo("POST", key+"/add", body, &out); err != nil {
			return err
		}
		m.add(o.Key, o.Val, out.Val)
	case kTransfer:
		body, _ := json.Marshal(map[string]any{"ops": []map[string]any{
			{"op": "add", "key": o.Key, "val": o.Val},
			{"op": "add", "key": o.Key2, "val": -o.Val},
		}})
		var out struct{ Results []json.RawMessage }
		if err := r.httpDo("POST", "/batch", body, &out); err != nil {
			return err
		}
		if len(out.Results) != 2 {
			m.fail("transfer: %d results, want 2", len(out.Results))
		}
		m.transfer(o)
	case kScan:
		var out struct {
			Keys  uint64
			Pairs []kvPair
		}
		if err := r.httpDo("GET", "/scan", nil, &out); err != nil {
			return err
		}
		m.scan(out.Pairs, out.Keys)
	}
	return nil
}

// metricsURL is the daemon's Prometheus endpoint.
func (r *kvRun) metricsURL() string { return "http://" + r.d.httpAddr + "/metrics" }

// walBytes sums the sizes of the files in the WAL directory.
func (r *kvRun) walBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(r.walDir, func(_ string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		fi, err := de.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// audit reads the table back and checks it against the model; on the
// durable workload it then restarts the daemon on the run's WAL, times
// recovery, and checks every acked write is still served.
func (r *kvRun) audit() (recoveryS float64, walPerUser float64, err error) {
	table, present, err := r.readBack()
	if err != nil {
		return 0, 0, err
	}
	r.model.final(table, present)
	if !r.w.durable {
		return 0, 0, nil
	}
	r.shutdown()
	wb, err := r.walBytes()
	if err != nil {
		return 0, 0, err
	}
	walPerUser = float64(wb) / float64(r.userBytes.Load())
	t0 := time.Now()
	d, err := startDaemon(r.cfg.stmkvd, r.daemonArgs(), r.daemonCPUs, r.ctl)
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: %w", err)
	}
	recoveryS = time.Since(t0).Seconds()
	r.d = d
	r.clients = []*kvclient.Client{kvclient.New(d.protoAddr, kvclient.Options{})}
	after, present2, err := r.readBack()
	if err != nil {
		return 0, 0, err
	}
	for k := range after {
		if after[k] != table[k] || present2[k] != present[k] {
			r.model.fail("recovery %d: %d (present=%v), served %d before restart", k, after[k], present2[k], table[k])
		}
	}
	r.model.final(after, present2)
	return recoveryS, walPerUser, nil
}
