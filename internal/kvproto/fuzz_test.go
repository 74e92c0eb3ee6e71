package kvproto

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary byte streams through the full receive
// path — ReadFrame, then both decoders into reused messages, as the
// server's and the client's readers call them — and enforces the package
// contract: malformed input returns an error, it never panics and never
// over-allocates past the framing bounds.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: every sample message as a well-formed frame, plus the
	// classic confusions (HTTP text, truncations, corrupted CRC).
	for _, req := range sampleRequests() {
		if p, err := AppendRequest(nil, req); err == nil {
			if fr, err := AppendFrame(nil, p); err == nil {
				f.Add(fr)
			}
		}
	}
	for _, resp := range sampleResponses() {
		if p, err := AppendResponse(nil, resp); err == nil {
			if fr, err := AppendFrame(nil, p); err == nil {
				f.Add(fr)
			}
		}
	}
	f.Add([]byte("GET /kv/42 HTTP/1.1\r\n\r\n"))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	good, _ := AppendFrame(nil, []byte("payload"))
	f.Add(good[:len(good)-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			if err == io.EOF && len(data) > 0 && len(data) < HeaderSize {
				t.Fatalf("partial header returned clean EOF")
			}
			return
		}
		// A verified payload may still be malformed; decoding must simply
		// not panic either way.
		req, resp := dirtyRequest(), dirtyResponse()
		if err := DecodeRequestInto(payload, req); err == nil && !req.Op.Valid() {
			t.Fatalf("DecodeRequestInto accepted invalid op %d", req.Op)
		}
		if err := DecodeResponseInto(payload, resp); err == nil && !resp.Op.Valid() {
			t.Fatalf("DecodeResponseInto accepted invalid op %d", resp.Op)
		}
	})
}

// FuzzRoundTrip checks that whatever DecodeRequestInto accepts re-encodes
// to the identical payload (the codec is canonical: one message, one byte
// string), and likewise for responses. Each decode goes into a message
// left dirty by an earlier one, as on a connection, and must equal a
// decode into a fresh message: nothing of the old message survives.
func FuzzRoundTrip(f *testing.F) {
	for _, req := range sampleRequests() {
		if p, err := AppendRequest(nil, req); err == nil {
			f.Add(p)
		}
	}
	for _, resp := range sampleResponses() {
		if p, err := AppendResponse(nil, resp); err == nil {
			f.Add(p)
		}
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		req, resp := dirtyRequest(), dirtyResponse()
		reqErr, respErr := DecodeRequestInto(payload, req), DecodeResponseInto(payload, resp)
		if fresh, err := DecodeRequest(payload); (err == nil) != (reqErr == nil) || err == nil && !reflect.DeepEqual(req, fresh) {
			t.Fatalf("request decode into a used message diverged from a fresh one: %v vs %v", reqErr, err)
		}
		if fresh, err := DecodeResponse(payload); (err == nil) != (respErr == nil) || err == nil && !reflect.DeepEqual(resp, fresh) {
			t.Fatalf("response decode into a used message diverged from a fresh one: %v vs %v", respErr, err)
		}
		if reqErr == nil {
			out, err := AppendRequest(nil, req)
			if err != nil {
				t.Fatalf("accepted request %+v failed to re-encode: %v", req, err)
			}
			if !bytes.Equal(out, payload) {
				t.Fatalf("request re-encode diverged:\n in  %x\n out %x", payload, out)
			}
			again, err := DecodeRequest(out)
			if err != nil || !reflect.DeepEqual(req, again) {
				t.Fatalf("request double decode diverged: %v", err)
			}
		}
		if respErr == nil {
			out, err := AppendResponse(nil, resp)
			if err != nil {
				t.Fatalf("accepted response %+v failed to re-encode: %v", resp, err)
			}
			if !bytes.Equal(out, payload) {
				t.Fatalf("response re-encode diverged:\n in  %x\n out %x", payload, out)
			}
		}
	})
}

// dirtyRequest and dirtyResponse return messages with every field set, as
// a connection's reused message is after an earlier decode.
func dirtyRequest() *Request {
	return &Request{ID: 1, Op: OpCAS, Key: 2, Val: 3, Old: 4, TimeoutMs: 5, Limit: 6,
		Ops: []BatchOp{{Op: OpPut, Key: 7, Val: 8, Old: 9}}}
}

func dirtyResponse() *Response {
	return &Response{ID: 1, Op: OpScan, Status: StatusError, Msg: "old", Found: true, OK: true, Val: 2,
		Total: 3, Snapshot: true, Pairs: []KV{{Key: 4, Val: 5}}, Results: []BatchResult{{Val: 6, Found: true}},
		Stats: Stats{Commits: 7, Aborts: 8, Keys: 9, AdmissionWidth: 10}}
}
