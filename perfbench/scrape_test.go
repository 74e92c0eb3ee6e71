package main

import (
	"math"
	"strings"
	"testing"

	"tinystm/internal/obs"
	"tinystm/internal/rng"
)

func render(t *testing.T, reg *obs.Registry) scrape {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// leBucket returns the index of the `le` bound holding v (seconds).
func leBucket(bounds []uint64, scale, v float64) int {
	for i, b := range bounds {
		if v <= float64(b)*scale*(1+1e-9) {
			return i
		}
	}
	return len(bounds)
}

// The scrape's quantile, read from the exposition's coarse `le`
// buckets, must land in the same bucket as the quantile obs computes
// from its fine-grained snapshot, for whole scrapes and for the window
// between two scrapes.
func TestScrapeQuantilesAgreeWithObs(t *testing.T) {
	reg := obs.NewRegistry()
	h := obs.NewHistogram()
	bounds := obs.LatencyBounds()
	reg.Histogram("req_seconds", "Request latency.", obs.Labels{"op": "get", "surface": "proto"}, h, 1e-9, bounds)
	reg.Histogram("req_seconds", "Request latency.", obs.Labels{"op": "put", "surface": "proto"}, obs.NewHistogram(), 1e-9, bounds)
	r := rng.New(1)
	record := func(n int, scale uint64) {
		for i := 0; i < n; i++ {
			h.Record(500 + r.Uint64n(scale)) // ns
		}
	}
	record(20000, 40_000)
	s0, snap0 := render(t, reg), h.Snapshot()
	record(30000, 2_000_000)
	s1, snap1 := render(t, reg), h.Snapshot()
	delta := snap1.Sub(&snap0)

	for _, c := range []struct {
		name string
		s    scrape
		snap obs.Snapshot
	}{{"whole", s0, snap0}, {"window", s1.sub(s0), delta}} {
		ph := c.s.hist("req_seconds", "op", "get", "surface", "proto")
		if ph.count != float64(c.snap.Count) {
			t.Fatalf("%s: count %v, obs %d", c.name, ph.count, c.snap.Count)
		}
		if got, want := ph.sumVal, float64(c.snap.Sum)*1e-9; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: sum %g, obs %g", c.name, got, want)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fromScrape := ph.quantile(q)
			fromObs := float64(c.snap.Quantile(q)) * 1e-9
			if a, b := leBucket(bounds, 1e-9, fromScrape), leBucket(bounds, 1e-9, fromObs); a != b {
				t.Errorf("%s p%g: scrape %g s (bucket %d), obs %g s (bucket %d)", c.name, q*100, fromScrape, a, fromObs, b)
			}
		}
	}
	if got := s1.hist("req_seconds", "op", "put", "surface", "proto").count; got != 0 {
		t.Errorf("empty sibling series read %v observations", got)
	}
}

func TestParsePromLabelsAndTotals(t *testing.T) {
	text := `# HELP x_total A counter.
# TYPE x_total counter
x_total{cause="read-conflict",kind="a"} 3
x_total{kind="a",cause="extend"} 4
x_total_other 100
y{path="a\"b\\c"} 2.5e3
z 7 1712345678
`
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.get("x_total", "cause", "extend", "kind", "a"); got != 4 {
		t.Errorf("labels out of order: %v", got)
	}
	if got := s.total("x_total"); got != 7 {
		t.Errorf("total %v, want 7 (the x_total_other family excluded)", got)
	}
	if got := s.total("x_total", "cause", "extend"); got != 4 {
		t.Errorf("filtered total %v, want 4", got)
	}
	if got := s.get("y", "path", `a"b\c`); got != 2500 {
		t.Errorf("escaped label: %v", got)
	}
	if got := s.get("z"); got != 7 {
		t.Errorf("timestamped sample: %v", got)
	}
	for _, bad := range []string{`x{a="b"`, `x{a=b} 1`, `x{a="b"}`, `x abc`} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
