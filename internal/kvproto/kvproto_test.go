package kvproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

func frameOf(t testing.TB, payload []byte) []byte {
	t.Helper()
	f, err := AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x00},
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, MaxFrame),
	}
	var buf []byte
	for _, p := range payloads {
		got, err := ReadFrame(bytes.NewReader(frameOf(t, p)), buf)
		if err != nil {
			t.Fatalf("ReadFrame(%d bytes): %v", len(p), err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("round trip of %d bytes returned %d bytes", len(p), len(got))
		}
		buf = got // exercise buffer reuse across sizes
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := AppendFrame(nil, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized AppendFrame: %v, want ErrFrameTooLarge", err)
	}

	// Oversized length field: an HTTP request line read as a frame header
	// must be rejected before any allocation.
	hdr := []byte("GET / HT")
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("HTTP request line: %v, want ErrFrameTooLarge", err)
	}

	// Corrupted payload: CRC mismatch.
	f := frameOf(t, []byte("payload"))
	f[len(f)-1] ^= 0xFF
	if _, err := ReadFrame(bytes.NewReader(f), nil); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted payload: %v, want ErrChecksum", err)
	}

	// Corrupted header CRC field.
	f = frameOf(t, []byte("payload"))
	f[5] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(f), nil); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted CRC: %v, want ErrChecksum", err)
	}

	// Truncated stream mid-payload.
	f = frameOf(t, []byte("payload"))
	if _, err := ReadFrame(bytes.NewReader(f[:len(f)-3]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v, want ErrUnexpectedEOF", err)
	}

	// Truncated stream mid-header.
	if _, err := ReadFrame(bytes.NewReader(f[:4]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: %v, want ErrUnexpectedEOF", err)
	}

	// Clean EOF between frames is a clean EOF, not an error wrap.
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

func sampleRequests() []*Request {
	return []*Request{
		{ID: 1, Op: OpGet, Key: 42},
		{ID: 2, Op: OpPut, Key: 42, Val: 7},
		{ID: 3, Op: OpDelete, Key: 42},
		{ID: 4, Op: OpCAS, Key: 42, Old: 7, Val: 8},
		{ID: 5, Op: OpAdd, Key: 42, Val: ^uint64(0)}, // delta -1
		{ID: 6, Op: OpScan, Limit: 100},
		{ID: 7, Op: OpScan},
		{ID: 8, Op: OpStats},
		{ID: 9, Op: OpBatch, Ops: []BatchOp{
			{Op: OpPut, Key: 1, Val: 2},
			{Op: OpGet, Key: 1},
			{Op: OpCAS, Key: 1, Old: 2, Val: 3},
			{Op: OpAdd, Key: 1, Val: 10},
			{Op: OpDelete, Key: 1},
		}},
		{ID: 10, Op: OpBatch, Ops: []BatchOp{}},
		{ID: ^uint64(0), Op: OpGet, Key: ^uint64(0)},
		// Deadline-bearing requests (op byte bit 7 + u32 budget). These
		// also seed the fuzz corpus with flagged frames.
		{ID: 11, Op: OpGet, Key: 42, TimeoutMs: 250},
		{ID: 12, Op: OpPut, Key: 42, Val: 7, TimeoutMs: 1},
		{ID: 13, Op: OpScan, Limit: 10, TimeoutMs: 3600000},
		{ID: 14, Op: OpBatch, TimeoutMs: 50, Ops: []BatchOp{{Op: OpAdd, Key: 1, Val: 2}}},
		{ID: 15, Op: OpStats, TimeoutMs: ^uint32(0)},
	}
}

func sampleResponses() []*Response {
	return []*Response{
		{ID: 1, Op: OpGet, Found: true, Val: 7},
		{ID: 2, Op: OpGet},
		{ID: 3, Op: OpPut, OK: true},
		{ID: 4, Op: OpDelete, Found: true},
		{ID: 5, Op: OpCAS, OK: true},
		{ID: 6, Op: OpAdd, Val: 9},
		{ID: 7, Op: OpScan, Snapshot: true, Total: 3, Pairs: []KV{{1, 2}, {3, 4}, {5, 6}}},
		{ID: 8, Op: OpScan, Total: 0},
		{ID: 9, Op: OpStats, Stats: Stats{Commits: 10, Aborts: 3, Keys: 5, AdmissionWidth: 8}},
		{ID: 10, Op: OpBatch, Results: []BatchResult{
			{Val: 1, Found: true}, {OK: true}, {},
		}},
		{ID: 11, Op: OpGet, Status: StatusUnavailable, Msg: "replaying WAL"},
		{ID: 12, Op: OpPut, Status: StatusError, Msg: "space exhausted"},
		{ID: 13, Op: OpBatch, Status: StatusError, Msg: ""},
		{ID: 14, Op: OpScan, Status: StatusDeadlineExceeded, Msg: "deadline exceeded at gate"},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		p, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("%v request: encode: %v", req.Op, err)
		}
		got, err := DecodeRequest(p)
		if err != nil {
			t.Fatalf("%v request: decode: %v", req.Op, err)
		}
		// An encoded empty batch decodes as an empty (non-nil) slice.
		want := *req
		if want.Op == OpBatch && want.Ops == nil {
			want.Ops = []BatchOp{}
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%v request round trip:\n got %+v\nwant %+v", req.Op, got, &want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range sampleResponses() {
		p, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("%v response: encode: %v", resp.Op, err)
		}
		got, err := DecodeResponse(p)
		if err != nil {
			t.Fatalf("%v response: decode: %v", resp.Op, err)
		}
		want := *resp
		if want.Status == StatusOK && want.Op == OpBatch && want.Results == nil {
			want.Results = []BatchResult{}
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%v response round trip:\n got %+v\nwant %+v", resp.Op, got, &want)
		}
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	valid, err := AppendRequest(nil, &Request{ID: 1, Op: OpCAS, Key: 1, Old: 2, Val: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Every strict prefix of a valid payload is truncated.
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeRequest(valid[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: %v, want ErrTruncated", n, err)
		}
	}
	// Any suffix padding is trailing bytes.
	if _, err := DecodeRequest(append(append([]byte{}, valid...), 0)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("padded payload: %v, want ErrTrailingBytes", err)
	}

	// Unknown op codes: 0 and one past the end.
	bad := append(binary.LittleEndian.AppendUint64(nil, 1), 0)
	if _, err := DecodeRequest(bad); !errors.Is(err, ErrBadOp) {
		t.Fatalf("op 0: %v, want ErrBadOp", err)
	}
	bad = append(binary.LittleEndian.AppendUint64(nil, 1), byte(opEnd))
	if _, err := DecodeRequest(bad); !errors.Is(err, ErrBadOp) {
		t.Fatalf("op %d: %v, want ErrBadOp", opEnd, err)
	}

	// A batch sub-op outside OpGet..OpAdd (e.g. a nested OpBatch).
	nested := append(binary.LittleEndian.AppendUint64(nil, 1), byte(OpBatch))
	nested = binary.LittleEndian.AppendUint32(nested, 1)
	nested = append(nested, byte(OpBatch))
	nested = append(nested, make([]byte, 24)...)
	if _, err := DecodeRequest(nested); !errors.Is(err, ErrBadOp) {
		t.Fatalf("nested batch: %v, want ErrBadOp", err)
	}

	// A batch count beyond MaxBatchOps must be rejected by value, and a
	// huge count whose ops are absent must be rejected BEFORE allocating.
	big := append(binary.LittleEndian.AppendUint64(nil, 1), byte(OpBatch))
	big = binary.LittleEndian.AppendUint32(big, MaxBatchOps+1)
	if _, err := DecodeRequest(big); !errors.Is(err, ErrTooManyOps) {
		t.Fatalf("oversized batch count: %v, want ErrTooManyOps", err)
	}
	lying := append(binary.LittleEndian.AppendUint64(nil, 1), byte(OpBatch))
	lying = binary.LittleEndian.AppendUint32(lying, MaxBatchOps)
	if _, err := DecodeRequest(lying); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying batch count: %v, want ErrTruncated", err)
	}

	// Oversized batch refuses to encode, too.
	huge := &Request{Op: OpBatch, Ops: make([]BatchOp, MaxBatchOps+1)}
	if _, err := AppendRequest(nil, huge); !errors.Is(err, ErrTooManyOps) {
		t.Fatalf("oversized batch encode: %v, want ErrTooManyOps", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: 0}); !errors.Is(err, ErrBadOp) {
		t.Fatalf("invalid op encode: %v, want ErrBadOp", err)
	}
}

func TestDeadlineCodecRules(t *testing.T) {
	// Canonical: TimeoutMs == 0 encodes with a CLEAR flag and no field,
	// so the flagged-with-zero-budget payload is rejected on decode.
	bad := append(binary.LittleEndian.AppendUint64(nil, 1), byte(OpGet)|opDeadlineFlag)
	bad = binary.LittleEndian.AppendUint32(bad, 0)
	bad = binary.LittleEndian.AppendUint64(bad, 42)
	if _, err := DecodeRequest(bad); !errors.Is(err, ErrBadDeadline) {
		t.Fatalf("flagged zero budget: %v, want ErrBadDeadline", err)
	}

	// The op code under the flag must still be valid.
	bad = append(binary.LittleEndian.AppendUint64(nil, 1), byte(opEnd)|opDeadlineFlag)
	bad = binary.LittleEndian.AppendUint32(bad, 100)
	if _, err := DecodeRequest(bad); !errors.Is(err, ErrBadOp) {
		t.Fatalf("flagged invalid op: %v, want ErrBadOp", err)
	}

	// A flag with the deadline field missing is truncated.
	bad = append(binary.LittleEndian.AppendUint64(nil, 1), byte(OpStats)|opDeadlineFlag)
	if _, err := DecodeRequest(bad); !errors.Is(err, ErrTruncated) {
		t.Fatalf("flag without field: %v, want ErrTruncated", err)
	}

	// Batch SUB-op bytes carry no deadline flag: a flagged sub-op is a
	// bad op, not a deadline.
	nested := append(binary.LittleEndian.AppendUint64(nil, 1), byte(OpBatch))
	nested = binary.LittleEndian.AppendUint32(nested, 1)
	nested = append(nested, byte(OpGet)|opDeadlineFlag)
	nested = append(nested, make([]byte, 24)...)
	if _, err := DecodeRequest(nested); !errors.Is(err, ErrBadOp) {
		t.Fatalf("flagged batch sub-op: %v, want ErrBadOp", err)
	}

	// Deadline-bearing payloads re-encode byte-identically (canonical).
	req := &Request{ID: 9, Op: OpCAS, Key: 1, Old: 2, Val: 3, TimeoutMs: 75}
	p, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := AppendRequest(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, p2) {
		t.Fatal("deadline-bearing request did not re-encode canonically")
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	valid, err := AppendResponse(nil, &Response{ID: 1, Op: OpScan, Total: 2, Pairs: []KV{{1, 2}, {3, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeResponse(valid[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: %v, want ErrTruncated", n, err)
		}
	}
	if _, err := DecodeResponse(append(append([]byte{}, valid...), 0)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("padded payload: %v, want ErrTrailingBytes", err)
	}

	// Invalid status byte.
	bad := binary.LittleEndian.AppendUint64(nil, 1)
	bad = append(bad, byte(OpGet), byte(statusEnd))
	if _, err := DecodeResponse(bad); err == nil {
		t.Fatal("invalid status accepted")
	}

	// A scan pair count whose pairs are absent: rejected before allocation.
	lying := binary.LittleEndian.AppendUint64(nil, 1)
	lying = append(lying, byte(OpScan), byte(StatusOK), 0)
	lying = binary.LittleEndian.AppendUint64(lying, 0)
	lying = binary.LittleEndian.AppendUint32(lying, MaxScanPairs)
	if _, err := DecodeResponse(lying); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying scan count: %v, want ErrTruncated", err)
	}
	lying = lying[:len(lying)-4]
	lying = binary.LittleEndian.AppendUint32(lying, MaxScanPairs+1)
	if _, err := DecodeResponse(lying); !errors.Is(err, ErrTooManyPairs) {
		t.Fatalf("oversized scan count: %v, want ErrTooManyPairs", err)
	}

	// An error message is capped at 4 KiB on encode and round-trips.
	long := &Response{ID: 1, Op: OpGet, Status: StatusError, Msg: string(bytes.Repeat([]byte{'x'}, 1<<13))}
	p, err := AppendResponse(nil, long)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Msg) != 1<<12 {
		t.Fatalf("oversized Msg encoded as %d bytes, want capped at %d", len(got.Msg), 1<<12)
	}

	// Oversized pair list refuses to encode.
	if _, err := AppendResponse(nil, &Response{Op: OpScan, Pairs: make([]KV, MaxScanPairs+1)}); !errors.Is(err, ErrTooManyPairs) {
		t.Fatalf("oversized scan encode: %v, want ErrTooManyPairs", err)
	}
}

// TestPipelinedStream drives many frames through one buffer, decoding
// out of a single stream the way a connection reader does.
func TestPipelinedStream(t *testing.T) {
	var stream bytes.Buffer
	reqs := sampleRequests()
	for _, req := range reqs {
		p, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		f, err := AppendFrame(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(f)
	}
	var buf []byte
	for i, want := range reqs {
		p, err := ReadFrame(&stream, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = p
		got, err := DecodeRequest(p)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != want.ID || got.Op != want.Op {
			t.Fatalf("frame %d decoded as (id %d, op %v), want (id %d, op %v)",
				i, got.ID, got.Op, want.ID, want.Op)
		}
	}
	if _, err := ReadFrame(&stream, buf); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

func BenchmarkProtoEncode(b *testing.B) {
	req := &Request{ID: 1, Op: OpCAS, Key: 42, Old: 7, Val: 8}
	var payload, frame []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		payload, err = AppendRequest(payload[:0], req)
		if err != nil {
			b.Fatal(err)
		}
		frame, err = AppendFrame(frame[:0], payload)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = frame
}

// TestDecodeIntoAllocFree pins the readers' decode of a single-key
// message into a reused one at zero allocations.
func TestDecodeIntoAllocFree(t *testing.T) {
	p, err := AppendRequest(nil, &Request{ID: 1, Op: OpCAS, Key: 42, Old: 7, Val: 8, TimeoutMs: 9})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := AppendResponse(nil, &Response{ID: 1, Op: OpGet, Found: true, Val: 8})
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	var resp Response
	allocs := testing.AllocsPerRun(100, func() {
		if DecodeRequestInto(p, &req) != nil || DecodeResponseInto(rp, &resp) != nil {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Errorf("decoding into reused messages: %.1f allocs, want 0", allocs)
	}
}

func BenchmarkProtoDecode(b *testing.B) {
	p, err := AppendRequest(nil, &Request{ID: 1, Op: OpCAS, Key: 42, Old: 7, Val: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtoRoundTrip encodes, frames, reads and decodes a Put and
// its response, decoding into reused messages as the connection readers do.
func BenchmarkProtoRoundTrip(b *testing.B) {
	req := &Request{ID: 1, Op: OpPut, Key: 42, Val: 7}
	resp := &Response{ID: 1, Op: OpPut, OK: true}
	var gotReq Request
	var gotResp Response
	var frame, buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := AppendRequest(frame[:0], req)
		if err != nil {
			b.Fatal(err)
		}
		f, err := AppendFrame(nil, p)
		if err != nil {
			b.Fatal(err)
		}
		frame = p
		payload, err := ReadFrame(bytes.NewReader(f), buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = payload
		if err := DecodeRequestInto(payload, &gotReq); err != nil {
			b.Fatal(err)
		}
		rp, err := AppendResponse(nil, resp)
		if err != nil {
			b.Fatal(err)
		}
		if err := DecodeResponseInto(rp, &gotResp); err != nil {
			b.Fatal(err)
		}
	}
}
