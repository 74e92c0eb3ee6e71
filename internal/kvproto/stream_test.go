package kvproto

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// TestFrameEncodersMatchAppendFrame pins the wire bytes: encoding a
// message straight into a frame yields exactly AppendFrame over its
// payload, behind whatever dst already held, and a failed encode leaves
// dst as it was.
func TestFrameEncodersMatchAppendFrame(t *testing.T) {
	prefix := []byte("prefix")
	for _, req := range sampleRequests() {
		p, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		want := frameOf(t, p)
		got, err := AppendRequestFrame(slices.Clone(prefix), req)
		if err != nil || !bytes.Equal(got, append(slices.Clone(prefix), want...)) {
			t.Fatalf("%v request: AppendRequestFrame = (%x, %v), want prefix + %x", req.Op, got, err, want)
		}
		f, err := NewRequestFrame(req)
		if err != nil || !bytes.Equal(f.b, want) {
			t.Fatalf("%v request: NewRequestFrame = %v, frame differs", req.Op, err)
		}
	}
	for _, resp := range sampleResponses() {
		p, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		want := frameOf(t, p)
		got, err := AppendResponseFrame(slices.Clone(prefix), resp)
		if err != nil || !bytes.Equal(got, append(slices.Clone(prefix), want...)) {
			t.Fatalf("%v response: AppendResponseFrame = (%x, %v), want prefix + %x", resp.Op, got, err, want)
		}
		f, err := NewResponseFrame(resp)
		if err != nil || !bytes.Equal(f.b, want) {
			t.Fatalf("%v response: NewResponseFrame = %v, frame differs", resp.Op, err)
		}
	}

	if got, err := AppendRequestFrame(slices.Clone(prefix), &Request{Op: 0}); !errors.Is(err, ErrBadOp) || !bytes.Equal(got, prefix) {
		t.Fatalf("bad request: (%q, %v), want prefix untouched and ErrBadOp", got, err)
	}
	tooMany := &Response{Op: OpScan, Pairs: make([]KV, MaxScanPairs+1)}
	if got, err := AppendResponseFrame(slices.Clone(prefix), tooMany); !errors.Is(err, ErrTooManyPairs) || !bytes.Equal(got, prefix) {
		t.Fatalf("oversized response: (%q, %v), want prefix untouched and ErrTooManyPairs", got, err)
	}
	if f, err := NewResponseFrame(tooMany); f != nil || !errors.Is(err, ErrTooManyPairs) {
		t.Fatalf("NewResponseFrame(oversized) = (%v, %v), want ErrTooManyPairs", f, err)
	}
}

// TestReadFrameReusedBufferAllocatesNothing: the header is read into the
// caller's buffer, so a connection reader that reuses it allocates
// nothing per frame.
func TestReadFrameReusedBufferAllocatesNothing(t *testing.T) {
	frame, err := AppendRequestFrame(nil, &Request{ID: 1, Op: OpGet, Key: 2})
	if err != nil {
		t.Fatal(err)
	}
	var r bytes.Reader
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if _, err := ReadFrame(&r, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame with a reused buffer: %.1f allocs per frame, want 0", allocs)
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestWriteFrames checks the shared writer: every queued frame reaches
// the connection in queue order once the queue closes, a closed done
// stops it, and a failed write is returned.
func TestWriteFrames(t *testing.T) {
	var want []byte
	reqs := sampleRequests()
	q := make(chan *Frame, len(reqs))
	for _, req := range reqs {
		f, err := NewRequestFrame(req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f.b...)
		q <- f
	}
	close(q)
	var conn bytes.Buffer
	if err := WriteFrames(&conn, q, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(conn.Bytes(), want) {
		t.Fatalf("wrote %d bytes, want the %d queued", conn.Len(), len(want))
	}

	done := make(chan struct{})
	close(done)
	if err := WriteFrames(errWriter{}, make(chan *Frame), done); err != nil {
		t.Fatalf("WriteFrames after done = %v, want nil", err)
	}
	q = make(chan *Frame, 1)
	f, err := NewRequestFrame(&Request{ID: 1, Op: OpStats})
	if err != nil {
		t.Fatal(err)
	}
	q <- f
	if err := WriteFrames(errWriter{}, q, nil); err == nil {
		t.Fatal("WriteFrames over a broken connection returned nil")
	}
}
