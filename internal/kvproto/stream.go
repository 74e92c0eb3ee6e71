package kvproto

import (
	"bufio"
	"io"
	"runtime"
	"sync"
)

// Frame is one encoded frame, header and payload, in a recycled buffer.
// The goroutine that produces a message encodes it into a Frame and
// queues it; the connection's writer (WriteFrames) copies it into its
// buffered writer and returns the buffer for reuse. A queued Frame
// belongs to the writer, so the producer is free to reuse or mutate the
// message the moment it is queued.
type Frame struct{ b []byte }

// maxPooledFrame keeps one large Scan or Batch frame from pinning its
// buffer in the pool.
const maxPooledFrame = 64 << 10

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// NewRequestFrame encodes req as one frame.
func NewRequestFrame(req *Request) (*Frame, error) {
	f := framePool.Get().(*Frame)
	var err error
	if f.b, err = AppendRequestFrame(f.b[:0], req); err != nil {
		f.release()
		return nil, err
	}
	return f, nil
}

// NewResponseFrame encodes resp as one frame.
func NewResponseFrame(resp *Response) (*Frame, error) {
	f := framePool.Get().(*Frame)
	var err error
	if f.b, err = AppendResponseFrame(f.b[:0], resp); err != nil {
		f.release()
		return nil, err
	}
	return f, nil
}

func (f *Frame) release() {
	if cap(f.b) <= maxPooledFrame {
		framePool.Put(f)
	}
}

// WriteFrames is one connection's writer: it copies the frames queued on
// q to w through a 64 KiB buffer until q is closed (it then flushes and
// returns nil) or done is closed (it returns nil at once), or a write
// fails (it returns the error; the caller must drop the connection).
//
// It flushes only when the queue runs dry, and then not at once: it
// first yields the processor so producers that are runnable can queue
// their frames, and flushes only if the queue is still empty. Pipelined
// producers thereby share one write(2); a lone ping-pong caller is
// flushed straight away, because nothing else is runnable.
func WriteFrames(w io.Writer, q <-chan *Frame, done <-chan struct{}) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	for {
		var f *Frame
		select {
		case queued, ok := <-q:
			if !ok {
				return bw.Flush()
			}
			f = queued
		case <-done:
			return nil
		}
		_, err := bw.Write(f.b)
		f.release()
		if err != nil {
			return err
		}
		if len(q) == 0 {
			runtime.Gosched()
			if len(q) == 0 {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
		}
	}
}
