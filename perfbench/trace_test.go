package main

import "testing"

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "loadgen.op", Start: 0, End: 100, ID: 1, Req: 1},
		// Children overlap each other and one runs past its parent.
		{Name: "kvclient.get", Start: 10, End: 40, ID: 11, Parent: 1, Req: 1},
		{Name: "kvproto.decode", Start: 30, End: 50, ID: 12, Parent: 1, Req: 1},
		{Name: "kvstore.get", Start: 90, End: 120, ID: 13, Parent: 1, Req: 1},
		{Name: "kvclient.put", Start: 200, End: 260, ID: 21, Req: 2},
	}
	got := map[string]layerSelf{}
	for _, l := range selfTimes(spans) {
		got[l.Layer] = l
	}
	// Covered: [10,50) and [90,100) = 50 of the root's 100.
	want := map[string]int64{"loadgen": 50, "kvclient": 30 + 60, "kvproto": 20, "kvstore": 30}
	for layer, ns := range want {
		if got[layer].SelfNs != ns {
			t.Errorf("%s self %d, want %d", layer, got[layer].SelfNs, ns)
		}
	}
	if l := got["kvclient"]; l.Spans != 2 || l.MeanUs() != 0.045 {
		t.Errorf("kvclient: %d spans, mean %g us", l.Spans, l.MeanUs())
	}
}

func TestTracerSamplesWholeRequests(t *testing.T) {
	tr := newTracer(1, 4)
	for req := uint64(1); req <= 8; req++ {
		tr.add(0, span{Name: "loadgen.op", ID: req, Req: req})
		tr.child(0, "kvclient.get", 0, 1, req, req)
	}
	spans := tr.spans()
	if len(spans) != 4 {
		t.Fatalf("kept %d spans, want 2 requests x 2 spans", len(spans))
	}
	for _, s := range spans {
		if s.Req%4 != 0 {
			t.Errorf("kept a span of unsampled request %d", s.Req)
		}
	}
	var nilTracer *tracer
	nilTracer.add(0, span{})
	nilTracer.child(0, "x", 0, 1, 1, 1)
}
