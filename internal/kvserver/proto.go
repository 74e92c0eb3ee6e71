// The binary-protocol surface: a codec over exec, like the HTTP one. The
// reader decodes each kvproto frame into a kvproto.Request, anchors its
// relative budget to an absolute deadline, and hands it to its own
// goroutine (bounded per connection); OpStats answers from the TM
// counters, every data op runs through exec, and exec's cause becomes
// the response Status through the causes table. The op goroutine encodes
// its response frame itself, and the writer streams frames back in
// COMPLETION order, so a slow update never convoys the reads pipelined
// behind it. Beyond exec's stages the binary surface has one of its own:
// the dequeue deadline check, for an op that waited behind a full
// pipeline.
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

// protoInflight bounds one connection's concurrently executing ops: the
// pipeline stays thousands deep in the kernel socket buffers, but only
// this many transactions run at once per connection (the admission gate
// then bounds updaters across ALL connections).
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
}

func (p *protoStats) stats() map[string]any {
	return map[string]any{
		"conns":      p.conns.Load(),
		"accepted":   p.accepted.Load(),
		"ops":        p.ops.Load(),
		"err_ops":    p.errOps.Load(),
		"bad_frames": p.badFrames.Load(),
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
	// the id the client chose is its only matching key. Each op goroutine
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
			// goroutines must never block on send.
			for range out {
			}
		}
	}()

	var wg sync.WaitGroup
	slots := make(chan struct{}, protoInflight)
	// Frames are read through a buffer, so one read(2) takes in every
	// request the client has pipelined into the socket so far.
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	for {
		payload, err := kvproto.ReadFrame(br, buf)
		if err != nil {
			if err != io.EOF {
				s.proto.badFrames.Add(1)
			}
			break
		}
		buf = payload
		req, err := kvproto.DecodeRequest(payload)
		if err != nil {
			// The frame was intact (CRC passed) but the payload is not a
			// request we understand: answer StatusError when the id is
			// recoverable, then drop the connection — the peer is broken.
			s.proto.badFrames.Add(1)
			if len(payload) >= 8 {
				id := binary.LittleEndian.Uint64(payload[:8])
				s.sendProto(out, &kvproto.Response{ID: id, Op: kvproto.OpGet, Status: kvproto.StatusError, Msg: err.Error()})
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
		slots <- struct{}{}
		wg.Add(1)
		go func(req *kvproto.Request, dl time.Time) {
			defer func() { <-slots; wg.Done() }()
			// Dequeue check: the op may have sat behind a full pipeline
			// (the slots send above blocks when protoInflight ops run).
			// Starting work for a client that already gave up is waste.
			if expired(dl) {
				s.sendProto(out, &kvproto.Response{
					ID: req.ID, Op: req.Op, Status: kvproto.StatusDeadlineExceeded,
					Msg: s.shedDeadline(surfProto, shedStageDequeue),
				})
				return
			}
			resp := s.answerProto(req, dl)
			s.sendProto(out, &resp)
		}(req, dl)
	}
	wg.Wait()
	close(out)
	<-writerDone
}

// sendProto encodes and enqueues one response.
func (s *Server) sendProto(out chan<- *kvproto.Frame, resp *kvproto.Response) {
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
	out <- f
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
