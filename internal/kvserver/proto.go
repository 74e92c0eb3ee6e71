// The binary-protocol surface: a codec over exec, like the HTTP one. The
// reader decodes each kvproto frame into a kvproto.Request it owns,
// anchors its relative budget to an absolute deadline, and hands it to an
// idle op worker of the connection, starting a new worker only when none
// is idle (at most protoInflight per connection; the workers live until
// the connection closes, so a request costs no goroutine start and no
// stack growth). OpStats answers from the TM counters, every data op runs
// through exec, and exec's cause becomes the response Status through the
// causes table. The worker encodes its response frame itself, and the
// writer streams frames back in COMPLETION order, so a slow update never
// convoys the reads pipelined behind it. Beyond exec's stages the binary
// surface has one of its own: the dequeue deadline check, for an op that
// waited behind a full pipeline.
//
// Both directions batch syscalls: the reader takes frames from a
// buffered reader, so one read(2) drains every request pipelined into the
// socket, and the writer flushes only when its queue stays empty after a
// yield (kvproto.WriteFrames), so the responses of a burst leave in one
// write(2).
package kvserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tinystm/internal/kvproto"
)

// protoInflight bounds one connection's concurrently executing ops, and
// so its op workers: the pipeline stays thousands deep in the kernel
// socket buffers, but only this many transactions run at once per
// connection (the admission gate then bounds updaters across ALL
// connections).
const protoInflight = 256

// protoStats carries the binary listener's counters for /stats and the
// smoke tests' zero-protocol-errors assertion.
type protoStats struct {
	//stm:allow-atomic listener accounting outside any transaction
	conns atomic.Int64 // currently open connections
	//stm:allow-atomic listener accounting outside any transaction
	accepted atomic.Uint64 // connections accepted in total
	//stm:allow-atomic listener accounting outside any transaction
	ops atomic.Uint64 // requests executed
	//stm:allow-atomic listener accounting outside any transaction
	errOps atomic.Uint64 // responses with a non-OK status
	//stm:allow-atomic listener accounting outside any transaction
	badFrames atomic.Uint64 // connections dropped for framing/decode errors
	//stm:allow-atomic listener accounting outside any transaction
	workers atomic.Uint64 // op worker goroutines started in total
}

func (p *protoStats) stats() map[string]any {
	return map[string]any{
		"conns":      p.conns.Load(),
		"accepted":   p.accepted.Load(),
		"ops":        p.ops.Load(),
		"err_ops":    p.errOps.Load(),
		"bad_frames": p.badFrames.Load(),
		"workers":    p.workers.Load(),
	}
}

// ServeProto accepts kvproto connections on l until the listener closes.
// Each connection gets a reader (buffered frames in, ops dispatched) and
// a writer (response frames out, yield-then-flush); the call blocks like
// http.Serve.
func (s *Server) ServeProto(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.proto.accepted.Add(1)
		s.proto.conns.Add(1)
		go func() {
			defer s.proto.conns.Add(-1)
			s.serveProtoConn(conn)
		}()
	}
}

// serveProtoConn runs one connection's reader loop. Any framing error —
// oversized length, CRC mismatch, truncation — kills the connection:
// a byte stream that lost framing cannot resynchronize.
func (s *Server) serveProtoConn(conn net.Conn) {
	defer conn.Close()

	// The writer drains out. Responses complete out of order by design;
	// the id the client chose is its only matching key. Each op worker
	// encodes its own response frame and queues it on the buffered
	// channel without rendezvousing with the writer, which copies queued
	// frames into one buffer and flushes when the queue stays dry after a
	// yield (kvproto.WriteFrames): one write(2) for a pipelined burst, an
	// immediate one for a ping-pong caller.
	out := make(chan *kvproto.Frame, protoInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		if kvproto.WriteFrames(conn, out, nil) != nil {
			// Drain without writing: the connection is gone, but op
			// workers must never block on send.
			for range out {
			}
		}
	}()

	// The op workers: idle ones wait on idle, which has a place for each
	// of the at most protoInflight workers, so going idle never blocks.
	// All of them end when their next channel closes with the connection.
	idle := make(chan *protoWorker, protoInflight)
	var workers []*protoWorker
	var wg sync.WaitGroup
	// Frames are read through a buffer, so one read(2) takes in every
	// request the client has pipelined into the socket so far.
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	req := new(kvproto.Request)
	for {
		payload, err := kvproto.ReadFrame(br, buf)
		if err != nil {
			if err != io.EOF {
				s.proto.badFrames.Add(1)
			}
			break
		}
		buf = payload
		if err := kvproto.DecodeRequestInto(payload, req); err != nil {
			// The frame was intact (CRC passed) but the payload is not a
			// request we understand: answer StatusError when the id is
			// recoverable, then drop the connection — the peer is broken.
			s.proto.badFrames.Add(1)
			if len(payload) >= 8 {
				id := binary.LittleEndian.Uint64(payload[:8])
				out <- s.protoFrame(&kvproto.Response{ID: id, Op: kvproto.OpGet, Status: kvproto.StatusError, Msg: err.Error()})
			}
			break
		}
		// Re-anchor the relative budget to an absolute deadline the moment
		// the request leaves the socket: transit time never counts against
		// it, and the server's own clock is the only one consulted.
		var dl time.Time
		if req.TimeoutMs > 0 {
			dl = time.Now().Add(time.Duration(req.TimeoutMs) * time.Millisecond)
		}
		var w *protoWorker
		select {
		case w = <-idle:
		default:
			if len(workers) < protoInflight {
				w = &protoWorker{next: make(chan struct{}, 1), req: new(kvproto.Request)}
				workers = append(workers, w)
				s.proto.workers.Add(1)
				wg.Add(1)
				go s.runProtoWorker(w, idle, out, &wg)
			} else {
				// protoInflight ops run: wait for one to finish.
				w = <-idle
			}
		}
		// The worker takes the decoded request; the reader keeps the
		// worker's finished one to decode the next frame into.
		req, w.req = w.req, req
		w.dl = dl
		w.next <- struct{}{}
	}
	for _, w := range workers {
		close(w.next)
	}
	wg.Wait()
	close(out)
	<-writerDone
}

// protoWorker is one op worker of a connection: the reader hands it a
// request and its deadline, then signals next.
type protoWorker struct {
	next chan struct{}
	req  *kvproto.Request
	dl   time.Time
}

// runProtoWorker answers each request handed to w until the connection
// closes w.next. It goes back on idle once the response is encoded and
// before it is queued, so by the time a client reads a response, the
// worker that produced it can take the next request.
func (s *Server) runProtoWorker(w *protoWorker, idle chan<- *protoWorker, out chan<- *kvproto.Frame, wg *sync.WaitGroup) {
	defer wg.Done()
	for range w.next {
		var f *kvproto.Frame
		// Dequeue check: the op may have waited for a worker behind a
		// full pipeline (protoInflight ops running). Starting work for a
		// client that already gave up is waste.
		if expired(w.dl) {
			f = s.protoFrame(&kvproto.Response{
				ID: w.req.ID, Op: w.req.Op, Status: kvproto.StatusDeadlineExceeded,
				Msg: s.shedDeadline(surfProto, shedStageDequeue),
			})
		} else {
			resp := s.answerProto(w.req, w.dl)
			f = s.protoFrame(&resp)
		}
		idle <- w
		out <- f
	}
}

// protoFrame encodes one response.
func (s *Server) protoFrame(resp *kvproto.Response) *kvproto.Frame {
	if resp.Status != kvproto.StatusOK {
		s.proto.errOps.Add(1)
	}
	f, err := kvproto.NewResponseFrame(resp)
	if err != nil {
		// Encoding our own response can only fail on a server bug
		// (oversized pair list); degrade to a generic error.
		f, _ = kvproto.NewResponseFrame(&kvproto.Response{
			ID: resp.ID, Op: resp.Op, Status: kvproto.StatusError, Msg: "response encoding failed",
		})
	}
	return f
}

// answerProto answers one decoded binary request that survived the
// dequeue check: OpStats from the TM counters, every data op through
// exec with its cause mapped to the binary status.
func (s *Server) answerProto(req *kvproto.Request, dl time.Time) kvproto.Response {
	s.proto.ops.Add(1)
	if req.Op == kvproto.OpStats {
		st := s.tm.Stats()
		return kvproto.Response{ID: req.ID, Op: req.Op, Stats: kvproto.Stats{
			Commits:        st.Commits,
			Aborts:         st.Aborts,
			Keys:           s.store.Len(),
			AdmissionWidth: uint32(s.admissionWidth()),
		}}
	}
	resp, c := s.exec(req, dl, surfProto)
	resp.Status = causes[c].proto
	return resp
}
