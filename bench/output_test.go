package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestOutputGolden pins the output schema: one {workload, metric, unit,
// value, n} line per metric in the order measured, then the summary line
// with exactly the requested names.
func TestOutputGolden(t *testing.T) {
	r := newResult(wlOwner3)
	r.Attempted = 4000
	r.set("setup_s", 0.0125, 8)
	r.set("alloc_per_s", 6178.5, 3800)
	r.set("alloc_fail_share", 0, 4000)
	var got bytes.Buffer
	if err := r.print(&got, []string{"setup_s", "alloc_per_s"}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/output.golden:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	if err := r.print(&bytes.Buffer{}, []string{"setup_s", "reclaim_s"}); err == nil {
		t.Error("a summary naming a metric the run did not measure must fail, not print a partial set")
	}
}

// benchmarkJSON is the driver contract's file at the root of the repo.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the program's own
// tables together: same workloads and reasons, same metric names, units,
// directions and bounds, same run length.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if want := []string{"go", "run", "-C", "bench", "."}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if info, ok := findWorkload(w.Name); !ok || info.why != w.Why {
			t.Errorf("workload %q: why differs from the program's", w.Name)
		}
	}
	if !reflect.DeepEqual(names, driverWorkloads) {
		t.Errorf("workloads = %v, want %v", names, driverWorkloads)
	}

	defs := make(map[string]metricDef)
	for _, m := range endToEnd {
		defs[m.Name] = m
	}
	names = nil
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
		d := defs[m.Name]
		if m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %s = {%s %s %v}, the program has {%s %s %v}", m.Name, m.Unit, m.Better, m.Bound, d.Unit, d.Better, d.Bound)
		}
		for _, w := range driverWorkloads {
			if !d.on(w) {
				t.Errorf("end_to_end %s is not defined on %s; the driver wants every metric on every workload", m.Name, w)
			}
		}
	}
	if !reflect.DeepEqual(names, driverEndToEnd) {
		t.Errorf("end_to_end = %v, want %v", names, driverEndToEnd)
	}
	names = nil
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
		if d, _ := metricByName(m.Name); m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %s = {%s %s}, the program has {%s %s}", m.Name, m.Unit, m.Better, d.Unit, d.Better)
		}
	}
	if !reflect.DeepEqual(names, driverPerLayer()) {
		t.Errorf("per_layer = %v, want %v", names, driverPerLayer())
	}
}
