// Command benchdiff compares two BENCH_<sha>.json artifacts (the files
// cmd/benchjson emits and CI uploads per push) and fails when a tracked
// metric regressed past a threshold. It closes the loop the benchmark
// trajectory was missing: artifacts were collected on every push but
// never compared, so a regression only surfaced if someone downloaded
// two of them and ran benchstat by hand.
//
// The comparison is per benchmark name over a single metric (default
// ns/op, where bigger is worse; pass -higher-is-better for rate metrics
// like txs/s). A benchmark run with -count N appears N times in an
// artifact; benchdiff compares the MEDIAN of those repeats and prints
// their spread (± half the range, relative to the median) next to it, so
// a delta can be read against the run-to-run noise of both sides.
// Benchmarks present in only one artifact are reported and skipped. A
// zero baseline counts any change as infinitely large, so -metric
// allocs/op -threshold 0 fails on any whole extra allocation, the first
// one included.
// -filter restricts the gate to a name subset — CI gates on the
// core/microbench suites.
//
// CI-scale caveat: most suites run -benchtime=1x (one iteration per
// repeat; the figure reproductions are seconds each), so the default
// threshold stays loose: a real 20% regression in a constant factor is
// far outside the jitter of a median of 5, but sub-10% differences are
// not resolvable. For a precise answer, regenerate with benchstat:
//
//	jq -r '.raw[]' old.json > old.txt; jq -r '.raw[]' new.json > new.txt
//	benchstat old.txt new.txt
//
// Usage:
//
//	benchdiff -old BENCH_aaa.json -new BENCH_bbb.json [-threshold 20]
//	          [-metric ns/op] [-filter '^Benchmark(List|Commit)'] [-warn-only]
//
// Exit status: 0 when no gated metric regressed past the threshold (or
// with -warn-only), 1 on regression, 2 on usage/input errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"regexp"
	"sort"
)

// Benchmark mirrors cmd/benchjson's parsed result entry.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations uint64             `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Artifact mirrors cmd/benchjson's document (fields we consume).
type Artifact struct {
	SHA     string      `json:"sha"`
	Results []Benchmark `json:"benchmarks"`
}

func loadArtifact(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	if len(a.Results) == 0 {
		return a, fmt.Errorf("%s: no benchmark results", path)
	}
	return a, nil
}

// summary is one benchmark's metric over its repeats.
type summary struct {
	median, spread float64 // spread: half the range over the median, 0 for one run
	n              int
}

// metricsByName summarizes an artifact's chosen metric per benchmark
// name: the median over the name's repeats (-count N) and their spread.
func metricsByName(a Artifact, metric string) map[string]summary {
	vals := make(map[string][]float64, len(a.Results))
	for _, b := range a.Results {
		if v, ok := b.Metrics[metric]; ok {
			vals[b.Name] = append(vals[b.Name], v)
		}
	}
	out := make(map[string]summary, len(vals))
	for name, vs := range vals {
		sort.Float64s(vs)
		n := len(vs)
		s := summary{median: vs[n/2], n: n}
		if n%2 == 0 {
			s.median = (vs[n/2-1] + vs[n/2]) / 2
		}
		if s.median != 0 {
			s.spread = (vs[n-1] - vs[0]) / 2 / s.median
		}
		out[name] = s
	}
	return out
}

// String renders the median and, over repeats, the spread.
func (s summary) String() string {
	if s.n < 2 {
		return fmt.Sprintf("%.1f", s.median)
	}
	return fmt.Sprintf("%.1f ±%.0f%%", s.median, s.spread*100)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	var (
		oldPath   = flag.String("old", "", "baseline artifact (required)")
		newPath   = flag.String("new", "", "candidate artifact (required)")
		threshold = flag.Float64("threshold", 20, "fail when the metric worsens by more than this percentage")
		metric    = flag.String("metric", "ns/op", "metric to compare")
		higher    = flag.Bool("higher-is-better", false, "treat larger metric values as improvements (rates)")
		filter    = flag.String("filter", "", "regexp of benchmark names to gate on (others are informational)")
		warnOnly  = flag.Bool("warn-only", false, "report regressions but always exit 0")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	var gate *regexp.Regexp
	if *filter != "" {
		var err error
		if gate, err = regexp.Compile(*filter); err != nil {
			log.Printf("bad -filter: %v", err)
			os.Exit(2)
		}
	}
	oldArt, err := loadArtifact(*oldPath)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	newArt, err := loadArtifact(*newPath)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	regressed := compare(os.Stdout, oldArt, newArt, *metric, *threshold, *higher, gate)
	if len(regressed) > 0 {
		log.Printf("%d benchmark(s) regressed more than %.0f%% on %s: %v",
			len(regressed), *threshold, *metric, regressed)
		if !*warnOnly {
			os.Exit(1)
		}
	}
}

// compare prints the per-benchmark delta table of medians and returns
// the gated names whose median worsened past the threshold.
func compare(w io.Writer, oldArt, newArt Artifact, metric string, threshold float64,
	higherIsBetter bool, gate *regexp.Regexp) []string {
	oldM := metricsByName(oldArt, metric)
	newM := metricsByName(newArt, metric)

	names := make([]string, 0, len(oldM))
	for name := range oldM {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "benchdiff %s -> %s (%s median over repeats ±half their range, threshold %.0f%%)\n",
		short(oldArt.SHA), short(newArt.SHA), metric, threshold)
	var regressed []string
	for _, name := range names {
		ov := oldM[name]
		nv, ok := newM[name]
		if !ok {
			fmt.Fprintf(w, "  %-50s %18s -> (removed)\n", name, ov)
			continue
		}
		deltaPct := 0.0
		switch {
		case ov.median != 0:
			deltaPct = (nv.median - ov.median) / ov.median * 100
		case nv.median != 0:
			// From a zero baseline any change is unbounded: a first
			// allocation where there were none must fail an allocs/op gate.
			deltaPct = math.Copysign(math.Inf(1), nv.median)
		}
		worse := deltaPct
		if higherIsBetter {
			worse = -deltaPct
		}
		gated := gate == nil || gate.MatchString(name)
		mark := " "
		if worse > threshold {
			if gated {
				mark = "!"
				regressed = append(regressed, name)
			} else {
				mark = "~" // over threshold but not gated
			}
		}
		fmt.Fprintf(w, "%s %-50s %18s -> %-18s %+7.1f%%\n", mark, name, ov, nv, deltaPct)
	}
	for name, nv := range newM {
		if _, ok := oldM[name]; !ok {
			fmt.Fprintf(w, "  %-50s (new) -> %s\n", name, nv)
		}
	}
	return regressed
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	if sha == "" {
		return "?"
	}
	return sha
}
