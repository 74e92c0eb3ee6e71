package kvserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tinystm/internal/kvclient"
	"tinystm/internal/kvproto"
)

// countingConn counts the Read and Write calls made on a connection:
// each is one read(2) or write(2) on a TCP socket.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// capturingListener records accepted connections, wrapped in a
// countingConn, so tests can count a connection's syscalls or sever it
// under a live client.
type capturingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *capturingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *capturingListener) severAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// protoHarness bundles a running server, its binary listener and a
// connected client. Everything shuts down with the test.
type protoHarness struct {
	srv  *Server
	c    *kvclient.Client
	addr string
	lis  *capturingListener
}

func startProto(t *testing.T, cfg Config) *protoHarness {
	t.Helper()
	if cfg.SpaceWords == 0 {
		cfg.SpaceWords = 1 << 16
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &capturingListener{Listener: raw}
	t.Cleanup(func() { lis.Close() })
	go srv.ServeProto(lis)
	c := kvclient.New(raw.Addr().String(), kvclient.Options{})
	t.Cleanup(c.Close)
	return &protoHarness{srv: srv, c: c, addr: raw.Addr().String(), lis: lis}
}

func TestProtoOps(t *testing.T) {
	c := startProto(t, Config{Snapshots: true}).c

	if _, found, err := c.Get(1); err != nil || found {
		t.Fatalf("Get on empty store = (%v, %v)", found, err)
	}
	if ins, err := c.Put(1, 10); err != nil || !ins {
		t.Fatalf("first Put = (%v, %v), want inserted", ins, err)
	}
	if ins, err := c.Put(1, 11); err != nil || ins {
		t.Fatalf("second Put = (%v, %v), want update", ins, err)
	}
	if val, found, err := c.Get(1); err != nil || !found || val != 11 {
		t.Fatalf("Get = (%d, %v, %v), want (11, true)", val, found, err)
	}
	if ok, err := c.CAS(1, 11, 12); err != nil || !ok {
		t.Fatalf("CAS(11->12) = (%v, %v), want ok", ok, err)
	}
	if ok, err := c.CAS(1, 11, 13); err != nil || ok {
		t.Fatalf("stale CAS = (%v, %v), want refused", ok, err)
	}
	if val, err := c.Add(1, 8); err != nil || val != 20 {
		t.Fatalf("Add = (%d, %v), want 20", val, err)
	}
	if val, err := c.Add(7, 5); err != nil || val != 5 {
		t.Fatalf("Add on missing key = (%d, %v), want 5", val, err)
	}
	if found, err := c.Delete(7); err != nil || !found {
		t.Fatalf("Delete = (%v, %v), want found", found, err)
	}
	if found, err := c.Delete(7); err != nil || found {
		t.Fatalf("second Delete = (%v, %v), want missing", found, err)
	}

	res, err := c.Batch([]kvproto.BatchOp{
		{Op: kvproto.OpPut, Key: 2, Val: 100},
		{Op: kvproto.OpGet, Key: 1},
		{Op: kvproto.OpAdd, Key: 2, Val: 1},
		{Op: kvproto.OpCAS, Key: 2, Old: 101, Val: 102},
		{Op: kvproto.OpDelete, Key: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []kvproto.BatchResult{
		{OK: true},
		{Val: 20, Found: true},
		{Val: 101, OK: true},
		{OK: true},
		{},
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("batch result %d = %+v, want %+v", i, res[i], want[i])
		}
	}

	pairs, total, snapshot, err := c.Scan(0)
	if err != nil || total != 2 || len(pairs) != 2 {
		t.Fatalf("Scan = (%d pairs, total %d, %v)", len(pairs), total, err)
	}
	if !snapshot {
		t.Fatal("Scan did not run as a snapshot on a Snapshots server")
	}
	pairs, _, _, err = c.Scan(1)
	if err != nil || len(pairs) != 1 {
		t.Fatalf("limited Scan = (%d pairs, %v), want 1", len(pairs), err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 2 || st.Commits == 0 {
		t.Fatalf("Stats = %+v, want 2 keys and some commits", st)
	}

	if _, err := c.Batch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestProtoPipelining floods one connection from many goroutines and
// checks every op lands: out-of-order completion with id matching is the
// protocol's core claim.
func TestProtoPipelining(t *testing.T) {
	h := startProto(t, Config{Snapshots: true})
	srv, c := h.srv, h.c

	const workers, opsEach = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				key := uint64(w)<<32 | uint64(i)
				if _, err := c.Add(key, 1); err != nil {
					errs <- err
					return
				}
				val, found, err := c.Get(key)
				if err != nil || !found || val != 1 {
					errs <- errors.New("read-your-write failed over the pipeline")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n := srv.Store().Len(); n != workers*opsEach {
		t.Fatalf("store has %d keys, want %d", n, workers*opsEach)
	}
	if got := srv.proto.errOps.Load(); got != 0 {
		t.Fatalf("%d protocol-level errors during clean pipelined load", got)
	}
}

// TestProtoAdmissionGate checks update ops flow through the gate: with
// width 1 the ops all land (the gate bounds concurrency, never refuses)
// and the waited counter shows queueing happened.
func TestProtoAdmissionGate(t *testing.T) {
	h := startProto(t, Config{Snapshots: true, AdmissionWidth: 1})
	srv, c := h.srv, h.c

	const workers, opsEach = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				if _, err := c.Add(1, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if val, _, err := c.Get(1); err != nil || val != workers*opsEach {
		t.Fatalf("counter = (%d, %v), want %d", val, err, workers*opsEach)
	}
	width, _, admitted, _ := srv.gate.Stats()
	if width != 1 || admitted != workers*opsEach {
		t.Fatalf("gate saw (width %d, admitted %d), want (1, %d)", width, admitted, workers*opsEach)
	}
}

// TestProtoMalformedPayload sends garbage in a valid frame: the server
// answers StatusError with the echoed id, then drops the connection.
func TestProtoMalformedPayload(t *testing.T) {
	h := startProto(t, Config{})
	if _, err := h.c.Put(1, 1); err != nil {
		t.Fatal(err)
	}

	// Raw connection: a well-framed payload with an invalid op byte.
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := binary.LittleEndian.AppendUint64(nil, 77)
	payload = append(payload, 0xEE)
	frame, err := kvproto.AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	got, err := kvproto.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := kvproto.DecodeResponse(got)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 77 || resp.Status != kvproto.StatusError {
		t.Fatalf("malformed payload answered (id %d, %v), want (77, error)", resp.ID, resp.Status)
	}
	// The connection must be closed after the error.
	if _, err := kvproto.ReadFrame(conn, nil); err == nil {
		t.Fatal("connection survived a malformed payload")
	}
	if h.srv.proto.badFrames.Load() == 0 {
		t.Fatal("bad frame not counted")
	}
}

// TestProtoFrameDesync sends plain HTTP at the binary port: the server
// must drop the connection without answering.
func TestProtoFrameDesync(t *testing.T) {
	h := startProto(t, Config{})
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /kv/1 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection without answering a byte; the
	// close may surface as EOF or a reset (unread request bytes), but
	// never as data.
	n, err := conn.Read(make([]byte, 1))
	if err == nil || n > 0 {
		t.Fatalf("server answered an HTTP request on the binary port (n=%d, err=%v)", n, err)
	}
}

// TestProtoBurstCoalescesSyscalls pins the server's stream I/O, bounded
// by work rather than time: a burst of pipelined requests sent in one
// client write is taken in with a handful of reads (the reader drains
// the socket through a buffer) and answered in fewer writes than frames
// (the writer flushes only when its queue stays dry).
func TestProtoBurstCoalescesSyscalls(t *testing.T) {
	h := startProto(t, Config{})
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const burst = 256
	var stream []byte
	for i := uint64(0); i < burst; i++ {
		if stream, err = kvproto.AppendRequestFrame(stream, &kvproto.Request{ID: i, Op: kvproto.OpGet, Key: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	seen := make(map[uint64]bool)
	var buf []byte
	for len(seen) < burst {
		p, err := kvproto.ReadFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = p
		resp, err := kvproto.DecodeResponse(p)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != kvproto.StatusOK || resp.ID >= burst || seen[resp.ID] {
			t.Fatalf("unexpected response %+v", resp)
		}
		seen[resp.ID] = true
	}
	h.lis.mu.Lock()
	sc := h.lis.conns[0]
	h.lis.mu.Unlock()
	t.Logf("server: %d reads, %d writes for %d frames each way", sc.reads.Load(), sc.writes.Load(), burst)
	// The reads include the one the reader is blocked in now.
	if r := sc.reads.Load(); r > burst/16 {
		t.Errorf("server took %d reads for a %d-request burst, want at most %d", r, burst, burst/16)
	}
	if w := sc.writes.Load(); w >= burst {
		t.Errorf("server answered %d frames in %d writes, want fewer writes than frames", burst, w)
	}
}

// TestProtoClientRedial kills the connection under the client and checks
// the next call dials fresh and succeeds.
func TestProtoClientRedial(t *testing.T) {
	h := startProto(t, Config{})
	c := h.c
	if _, err := c.Put(5, 50); err != nil {
		t.Fatal(err)
	}
	// Nuke every live server-side connection; in-flight is empty so the
	// client only notices on its next call, which redials.
	h.lis.severAll()
	deadline := 0
	for {
		if _, _, err := c.Get(5); err == nil {
			break
		}
		if deadline++; deadline > 100 {
			t.Fatal("client never recovered from a dropped connection")
		}
	}
	if val, found, err := c.Get(5); err != nil || !found || val != 50 {
		t.Fatalf("post-redial Get = (%d, %v, %v), want (50, true)", val, found, err)
	}
}

// TestProtoPipelinedAllocs pins the allocations of a pipelined round
// trip, client and server together (both run in this process): rounds
// of 16 concurrent calls over one connection, as BenchmarkProtoPipelined
// makes them.
func TestProtoPipelinedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// Either op measures 0: the op workers, store bodies, call slots and
	// decoded messages are all reused. AllocsPerRun counts whole
	// allocations per round, so a rare pool refill after a GC is not one.
	const depth, ceiling = 16, 0
	c := startProto(t, Config{}).c
	for k := uint64(0); k < depth; k++ {
		if _, err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []string{"get", "put"} {
		start, done := make(chan uint64), make(chan error)
		for w := 0; w < depth; w++ {
			go func() {
				for k := range start {
					var err error
					if op == "get" {
						_, _, err = c.Get(k)
					} else {
						_, err = c.Put(k, k)
					}
					done <- err
				}
			}()
		}
		var failed error
		round := func() {
			for k := uint64(0); k < depth; k++ {
				start <- k
			}
			for range depth {
				if err := <-done; err != nil {
					failed = err
				}
			}
		}
		allocs := testing.AllocsPerRun(200, round) / depth
		close(start)
		if failed != nil {
			t.Fatal(failed)
		}
		t.Logf("%s: %.1f allocs per round trip", op, allocs)
		if allocs > ceiling {
			t.Errorf("%s: %.1f allocs per pipelined round trip, want at most %d", op, allocs, ceiling)
		}
	}
}

// BenchmarkProtoPipelined measures pipelined Get and Put round trips over
// one binary connection. allocs/op counts both ends (client and server
// run in this process); both are 0 in steady state.
func BenchmarkProtoPipelined(b *testing.B) {
	for _, op := range []string{"get", "put"} {
		b.Run(op, func(b *testing.B) {
			srv, err := New(Config{SpaceWords: 1 << 18})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer lis.Close()
			go srv.ServeProto(lis)
			c := kvclient.New(lis.Addr().String(), kvclient.Options{})
			defer c.Close()
			for k := uint64(0); k < 1024; k++ {
				if _, err := c.Put(k, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var k uint64
				var err error
				for pb.Next() {
					k = (k + 1) & 1023
					if op == "get" {
						_, _, err = c.Get(k)
					} else {
						_, err = c.Put(k, k)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestProtoWorkersReused sends bursts of pipelined requests on one
// connection: the connection's op workers serve every burst, so the
// server starts no more of them than one burst's depth, its goroutine
// count stays within that depth plus the connection's reader and writer,
// and everything it started ends with the connection.
func TestProtoWorkersReused(t *testing.T) {
	const bursts, depth, slack = 10, 64, 4
	h := startProto(t, Config{})
	if _, err := h.c.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	h.c.Close()
	waitGoroutines(t, func(n int) bool { return h.srv.proto.conns.Load() == 0 })
	base := runtime.NumGoroutine()
	started := h.srv.proto.workers.Load()

	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var stream, buf []byte
	for b := 0; b < bursts; b++ {
		stream = stream[:0]
		for i := 0; i < depth; i++ {
			if stream, err = kvproto.AppendRequestFrame(stream, &kvproto.Request{ID: uint64(i), Op: kvproto.OpGet, Key: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			p, err := kvproto.ReadFrame(br, buf)
			if err != nil {
				t.Fatal(err)
			}
			buf = p
			var resp kvproto.Response
			if err := kvproto.DecodeResponseInto(p, &resp); err != nil || resp.Status != kvproto.StatusOK || !resp.Found {
				t.Fatalf("burst %d: response %+v, %v", b, resp, err)
			}
		}
		if g := runtime.NumGoroutine(); g > base+depth+slack {
			t.Fatalf("burst %d: %d goroutines, want at most %d (start %d + depth %d + %d)", b, g, base+depth+slack, base, depth, slack)
		}
	}
	if n := h.srv.proto.workers.Load() - started; n > depth {
		t.Errorf("started %d op workers for %d bursts of %d requests, want at most %d", n, bursts, depth, depth)
	}
	conn.Close()
	waitGoroutines(t, func(n int) bool { return n <= base })
}

// waitGoroutines polls until done holds for the goroutine count, failing
// the test after ten seconds.
func waitGoroutines(t *testing.T, done func(n int) bool) {
	t.Helper()
	for start := time.Now(); !done(runtime.NumGoroutine()); runtime.Gosched() {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("still %d goroutines", runtime.NumGoroutine())
		}
	}
}
