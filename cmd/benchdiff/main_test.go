package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func art(t *testing.T, name string, doc string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const oldDoc = `{"sha":"aaa","benchmarks":[
	{"name":"BenchmarkFoo-2","iterations":100,"metrics":{"ns/op":100,"txs/s":5000}},
	{"name":"BenchmarkBar-2","iterations":100,"metrics":{"ns/op":200}},
	{"name":"BenchmarkGone-2","iterations":100,"metrics":{"ns/op":10}}]}`

const newDoc = `{"sha":"bbb","benchmarks":[
	{"name":"BenchmarkFoo-2","iterations":100,"metrics":{"ns/op":150,"txs/s":3000}},
	{"name":"BenchmarkBar-2","iterations":100,"metrics":{"ns/op":201}},
	{"name":"BenchmarkNew-2","iterations":100,"metrics":{"ns/op":7}}]}`

func TestCompareFlagsRegressions(t *testing.T) {
	oldA, err := loadArtifact(art(t, "old.json", oldDoc))
	if err != nil {
		t.Fatal(err)
	}
	newA, err := loadArtifact(art(t, "new.json", newDoc))
	if err != nil {
		t.Fatal(err)
	}
	// Foo went 100 -> 150 ns/op: +50%, over a 20% threshold. Bar's +0.5%
	// is within it; Gone/New are informational only.
	reg := compare(os.Stdout, oldA, newA, "ns/op", 20, false, nil)
	if len(reg) != 1 || reg[0] != "BenchmarkFoo-2" {
		t.Fatalf("regressed = %v, want [BenchmarkFoo-2]", reg)
	}
	// A 60% threshold tolerates it.
	if reg := compare(os.Stdout, oldA, newA, "ns/op", 60, false, nil); len(reg) != 0 {
		t.Fatalf("regressed = %v at 60%%, want none", reg)
	}
	// A filter that excludes Foo ungates it.
	gate := regexp.MustCompile(`^BenchmarkBar`)
	if reg := compare(os.Stdout, oldA, newA, "ns/op", 20, false, gate); len(reg) != 0 {
		t.Fatalf("regressed = %v with Bar-only gate, want none", reg)
	}
	// Rate metric: txs/s dropped 5000 -> 3000 (-40%), a regression when
	// higher is better.
	if reg := compare(os.Stdout, oldA, newA, "txs/s", 20, true, nil); len(reg) != 1 {
		t.Fatalf("rate regressed = %v, want one", reg)
	}
}

func TestLoadArtifactErrors(t *testing.T) {
	if _, err := loadArtifact(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := loadArtifact(art(t, "empty.json", `{"sha":"x","benchmarks":[]}`)); err == nil {
		t.Fatal("empty artifact accepted")
	}
	if _, err := loadArtifact(art(t, "bad.json", `{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestMetricsByNameTakesMedian(t *testing.T) {
	a := Artifact{Results: []Benchmark{
		{Name: "B", Metrics: map[string]float64{"ns/op": 120}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 320}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 110}},
		{Name: "B", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "C", Metrics: map[string]float64{"ns/op": 10}},
		{Name: "C", Metrics: map[string]float64{"ns/op": 20}},
	}}
	m := metricsByName(a, "ns/op")
	// B's median of five ignores the 320 outlier; its spread, half the
	// range over the median, does not.
	if got := m["B"]; got.median != 110 || got.n != 5 || got.spread != 1 {
		t.Fatalf("B = %+v, want median 110 over 5 runs with spread 1", got)
	}
	if got := m["B"].String(); got != "110.0 ±100%" {
		t.Fatalf("B renders as %q", got)
	}
	// An even count averages the middle two.
	if got := m["C"].median; got != 15 {
		t.Fatalf("C median = %v, want 15", got)
	}
}

// TestCompareGatesOnMedian checks that one slow repeat does not fail the
// gate when the median held, that a moved median does, and that the
// table prints each side's spread.
func TestCompareGatesOnMedian(t *testing.T) {
	runs := func(sha string, vals ...float64) Artifact {
		a := Artifact{SHA: sha}
		for _, v := range vals {
			a.Results = append(a.Results, Benchmark{Name: "BenchmarkP-2", Metrics: map[string]float64{"ns/op": v}})
		}
		return a
	}
	base := runs("aaa", 100, 102, 98, 101, 99)
	var out strings.Builder
	if reg := compare(&out, base, runs("bbb", 100, 250, 99, 101, 102), "ns/op", 20, false, nil); len(reg) != 0 {
		t.Fatalf("one outlier repeat gated: %v\n%s", reg, out.String())
	}
	if !strings.Contains(out.String(), "100.0 ±2%") || !strings.Contains(out.String(), "101.0 ±75%") {
		t.Fatalf("table lacks the medians and spreads:\n%s", out.String())
	}
	if reg := compare(&out, base, runs("ccc", 130, 131, 129, 250, 128), "ns/op", 20, false, nil); len(reg) != 1 {
		t.Fatalf("median +30%% not gated: %v\n%s", reg, out.String())
	}
}

// TestCompareZeroBaseline checks an allocs/op gate against a baseline of
// zero: a first allocation is a regression at any threshold, a zero that
// stays zero is not, and a drop to zero is an improvement.
func TestCompareZeroBaseline(t *testing.T) {
	runs := func(sha string, vals ...float64) Artifact {
		a := Artifact{SHA: sha}
		for _, v := range vals {
			a.Results = append(a.Results, Benchmark{Name: "BenchmarkProtoPipelined/get-2", Metrics: map[string]float64{"allocs/op": v}})
		}
		return a
	}
	zero := runs("aaa", 0, 0, 0)
	var out strings.Builder
	if reg := compare(&out, zero, runs("bbb", 1, 1, 0), "allocs/op", 0, false, nil); len(reg) != 1 {
		t.Fatalf("0 -> 1 allocs/op not gated: %v\n%s", reg, out.String())
	}
	if !strings.Contains(out.String(), "+Inf%") {
		t.Errorf("table does not show the unbounded change:\n%s", out.String())
	}
	if reg := compare(&out, zero, runs("ccc", 0, 1, 0), "allocs/op", 0, false, nil); len(reg) != 0 {
		t.Fatalf("a median that stayed 0 gated: %v\n%s", reg, out.String())
	}
	if reg := compare(&out, runs("ddd", 10, 10, 10), zero, "allocs/op", 0, false, nil); len(reg) != 0 {
		t.Fatalf("10 -> 0 allocs/op gated: %v\n%s", reg, out.String())
	}
	if reg := compare(&out, runs("eee", 1, 1, 1), runs("fff", 2, 2, 2), "allocs/op", 0, false, nil); len(reg) != 1 {
		t.Fatalf("1 -> 2 allocs/op not gated: %v\n%s", reg, out.String())
	}
}
