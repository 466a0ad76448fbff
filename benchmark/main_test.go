package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// smokeSizes shrinks every workload so the whole smoke test takes seconds.
func smokeSizes() sizes {
	return sizes{
		clients: min(2, runtime.NumCPU()), setups: 1,
		kvRows: 2_000, lineitems: 2_000, parts: 100, scanSpan: 300,
		warehouses: 1, pointCalls: 200, scanCalls: 10, countOps: 100,
	}
}

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// withinRung is the slack allowed when a ladder rung is compared with the
// one above it: rungs are medians over different statements, so a layer
// whose self time is below their noise may read slightly out of order.
func withinRung(lower, upper float64) bool { return lower <= upper*1.5+5 }

func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		units[s.name] = s.unit
	}
	declared := 0
	check := func(n, unit string) {
		if !name.MatchString(n) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", n)
		}
		if u, ok := units[n]; !ok || u != unit {
			t.Errorf("BENCHMARK.json metric %s (%s): the program emits unit %q (declared: %v)", n, unit, u, ok)
		}
		declared++
	}
	sawSetup := false
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit)
	}
	if declared != len(units) {
		t.Errorf("BENCHMARK.json declares %d metrics, the program emits %d", declared, len(units))
	}

	o := &options{
		seed: 1, duration: 200 * time.Millisecond, warmup: 50 * time.Millisecond,
		trace: true, sz: smokeSizes(), tmp: t.TempDir(), out: os.Stdout,
	}
	o.traceDir = o.tmp
	baseline := runtime.NumGoroutine()
	for _, w := range bf.Workloads {
		wl := findWorkload(w.Name)
		if wl == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
			continue
		}
		// Two passes with one seed: the counting passes must agree exactly.
		a := runWorkload(o, wl, o.seed, baseline)
		b := runWorkload(o, wl, o.seed, baseline)
		for _, r := range []*result{a, b} {
			if !r.Correct {
				t.Errorf("%s: not correct: attempted %d, failed %d, errors %v", w.Name, r.Attempted, r.Failed, r.Errors)
			}
			for _, m := range bf.EndToEnd {
				if v, ok := r.EndToEnd[m.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v (emitted %v), want a finite positive value", w.Name, m.Name, v.Value, ok)
				}
			}
			for _, m := range bf.PerLayer {
				if v, ok := r.PerLayer[m.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: per-layer metric %s = %v (emitted %v), want a finite value", w.Name, m.Name, v.Value, ok)
				}
			}
		}
		for _, n := range []string{"vmem.prf_evals_per_op", "vmem.protected_ops_per_op"} {
			if x, y := a.PerLayer[n].Value, b.PerLayer[n].Value; x != y || x <= 0 {
				t.Errorf("%s: %s read %v then %v with the same seed; want one positive count", w.Name, n, x, y)
			}
		}
		rungs := []string{"ladder.r0_us", "ladder.r1_us", "ladder.r2_us", "ladder.r3_us", "ladder.r4_us", "ladder.r5_us"}
		for i := 0; i+1 < len(rungs); i++ {
			upper, lower := a.PerLayer[rungs[i]].Value, a.PerLayer[rungs[i+1]].Value
			if upper == 0 {
				continue // the workload enters below this rung
			}
			if lower <= 0 || !withinRung(lower, upper) {
				t.Errorf("%s: %s = %v but %s = %v; a deeper rung should cost no more", w.Name, rungs[i], upper, rungs[i+1], lower)
			}
		}
	}
}
