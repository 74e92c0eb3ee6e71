package kvclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestStreamCoalescesSyscalls pins the client's stream I/O, bounded by
// work rather than time: a burst of concurrent calls leaves in fewer
// writes than frames, and the burst of responses, which the server sends
// in one write, is taken in with a handful of reads.
func TestStreamCoalescesSyscalls(t *testing.T) {
	const burst = 256
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan error, 1)
	go func() { served <- answerBurst(lis, burst) }()

	sock, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: sock}
	c := New(lis.Addr().String(), Options{})
	defer c.Close()
	c.conn = c.start(cc)

	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for k := uint64(0); k < burst; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, found, err := c.Get(k)
			if err == nil && (!found || val != k+1) {
				err = fmt.Errorf("Get(%d) = (%d, %v), want (%d, true)", k, val, found, k+1)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if w := cc.writes.Load(); w >= burst {
		t.Errorf("client sent %d frames in %d writes, want fewer writes than frames", burst, w)
	}
	t.Logf("client: %d writes, %d reads for %d frames each way", cc.writes.Load(), cc.reads.Load(), burst)
	// The reads include the one the reader is blocked in now.
	if r := cc.reads.Load(); r > burst/16 {
		t.Errorf("client took %d reads for a %d-response burst, want at most %d", r, burst, burst/16)
	}
}

// answerBurst accepts one connection, reads n Get requests and answers
// them all in one write, each with the value key+1.
func answerBurst(lis net.Listener, n int) error {
	conn, err := lis.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var buf, stream []byte
	for i := 0; i < n; i++ {
		p, err := kvproto.ReadFrame(br, buf)
		if err != nil {
			return err
		}
		buf = p
		req, err := kvproto.DecodeRequest(p)
		if err != nil {
			return err
		}
		resp := kvproto.Response{ID: req.ID, Op: req.Op, Found: true, Val: req.Key + 1}
		if stream, err = kvproto.AppendResponseFrame(stream, &resp); err != nil {
			return err
		}
	}
	_, err = conn.Write(stream)
	return err
}

// TestLateResponseNeverReachesNewerCall times calls out against a server
// that answers key 0 late, with delays around the op timeout, and runs
// newer calls right behind each one: a late response lands in its
// abandoned call slot, so a newer call, which may reuse any recycled
// slot, always reads its own answer.
func TestLateResponseNeverReachesNewerCall(t *testing.T) {
	const timeout, stale = 20 * time.Millisecond, 999
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go serveLate(lis, timeout, stale)
	c := New(lis.Addr().String(), Options{OpTimeout: timeout})
	defer c.Close()

	for i := 0; i < 12; i++ {
		if val, _, err := c.Get(0); err == nil && val != stale {
			t.Fatalf("round %d: the slow call read %d, want its own answer %d", i, val, stale)
		}
		var wg sync.WaitGroup
		for k := uint64(1); k <= 8; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					val, found, err := c.Get(k)
					if errors.Is(err, ErrConn) {
						continue // the slow call's timeout failed this connection
					}
					if err != nil || !found || val != k+1 {
						t.Errorf("round %d: Get(%d) = (%d, %v, %v), want (%d, true)", i, k, val, found, err, k+1)
					}
					return
				}
			}()
		}
		wg.Wait()
	}
}

// serveLate answers every Get on every connection with key+1, except key
// 0, which it answers with stale after a delay that sweeps from 3/4 to
// 5/4 of timeout across requests.
func serveLate(lis net.Listener, timeout time.Duration, stale uint64) {
	var slow atomic.Int64
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			var mu sync.Mutex
			answer := func(resp kvproto.Response) {
				f, err := kvproto.AppendResponseFrame(nil, &resp)
				if err != nil {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				conn.Write(f)
			}
			br := bufio.NewReader(conn)
			var buf []byte
			for {
				p, err := kvproto.ReadFrame(br, buf)
				if err != nil {
					return
				}
				buf = p
				var req kvproto.Request
				if kvproto.DecodeRequestInto(p, &req) != nil {
					return
				}
				if req.Key != 0 {
					answer(kvproto.Response{ID: req.ID, Op: req.Op, Found: true, Val: req.Key + 1})
					continue
				}
				delay := timeout*3/4 + timeout*time.Duration(slow.Add(1)%5)/8
				go func() {
					time.Sleep(delay)
					answer(kvproto.Response{ID: req.ID, Op: req.Op, Found: true, Val: stale})
				}()
			}
		}()
	}
}
