package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root must list exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW [][2]string
	for _, w := range doc.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads:\n got %v\nwant %v", gotW, wantW)
	}
	var gotE, wantE [][3]string
	for _, m := range doc.EndToEnd {
		gotE = append(gotE, [3]string{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		wantE = append(wantE, [3]string{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("end_to_end:\n got %v\nwant %v", gotE, wantE)
	}
	var gotP, wantP [][3]string
	for _, m := range doc.PerLayer {
		gotP = append(gotP, [3]string{m.Name, m.Unit, m.Better})
	}
	for _, m := range perLayer {
		wantP = append(wantP, [3]string{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(gotP, wantP) {
		t.Errorf("per_layer:\n got %v\nwant %v", gotP, wantP)
	}
}
