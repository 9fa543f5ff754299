package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
)

// smallPlans shrinks every workload's campaigns so a whole run takes
// about a second.
var smallPlans = map[string]string{
	"cli_resume":     "rand:24",
	"fleet_loopback": "rand:24",
	"lib_inject":     "rand:24",
	"daemon_fuzz":    "feedback:24",
}

func smallOptions(t *testing.T, name string, trace bool) options {
	return options{
		workload: name,
		seed:     3,
		seconds:  0.2,
		trace:    trace,
		out:      t.TempDir(),
		setups:   2,
		plan:     smallPlans[name],
	}
}

func names(units [][2]string) []string {
	var out []string
	for _, nu := range units {
		out = append(out, nu[0])
	}
	return out
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEveryWorkloadRunsCorrect(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, report, err := execute(wl, smallOptions(t, wl.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.name, trace, res.Correct, res.Attempted, res.Failed, report)
			}
			want := e2eUnits
			if trace {
				want = layerUnits
			}
			if !sameNames(metricNames(res.Metrics), names(want)) {
				t.Fatalf("%s trace=%v: metrics %v, want %v", wl.name, trace, metricNames(res.Metrics), names(want))
			}
			if trace {
				continue
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, name, m.Value)
				}
			}
		}
	}
}

func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	corruptions := map[string]func(*reference){
		"log sha":   func(r *reference) { r.logSHA[0] ^= 1 },
		"log count": func(r *reference) { r.records++ },
	}
	for _, wl := range workloads {
		cs := corruptions
		if wl.name == "lib_inject" {
			cs = map[string]func(*reference){
				"report sha": func(r *reference) { r.summarySHA[0] ^= 1 },
				"tally":      func(r *reference) { r.tally += "x" },
				"issues":     func(r *reference) { r.issues++ },
				"legacy":     func(r *reference) { r.legacy = append(r.legacy, "XM_bogus/none") },
			}
		}
		for what, corrupt := range cs {
			o := smallOptions(t, wl.name, false)
			o.corrupt = corrupt
			res, _, err := execute(wl, o)
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			if res.Correct || res.Failed != res.Attempted {
				t.Errorf("%s with a corrupted %s: correct=%v, %d of %d operations failed; want every operation to fail",
					wl.name, what, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// Tracing must not change which engine path runs: the traced fixture's
// operations reproduce the untraced ones' merged log and engine
// statistics, seed for seed.
func TestTracedOperationMatchesUntraced(t *testing.T) {
	for _, wl := range []workload{cliResume, fleetLoopback, libInject} {
		e := &env{work: t.TempDir(), workers: runtime.NumCPU(), plan: smallPlans[wl.name]}
		te := *e
		te.tr = newTracer()
		const seed = 11
		ref, err := wl.reference(e, seed)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]opResult
		for i, env := range []*env{e, &te} {
			fx, err := wl.setup(env)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = fx.op(100+i, 0, seed, ref)
			if err := fx.close(); err != nil {
				t.Fatal(err)
			}
		}
		for i, r := range got {
			if r.err != nil {
				t.Fatalf("%s (traced %v): %v", wl.name, i == 1, r.err)
			}
		}
		if got[0].engine == "" || got[0].engine != got[1].engine {
			t.Errorf("%s: engine statistics untraced %q, traced %q", wl.name, got[0].engine, got[1].engine)
		}
		if len(te.tr.recorded()) == 0 {
			t.Errorf("%s: the traced operation recorded no spans", wl.name)
		}
	}
}

func TestEngineMismatches(t *testing.T) {
	untraced := []opResult{{seed: 1, engine: "a"}, {seed: 2, engine: "b"}}
	if m := engineMismatches(untraced, []opResult{{seed: 1, engine: "a"}, {seed: 2, engine: "b"}}); len(m) != 0 {
		t.Fatalf("identical statistics reported as mismatches: %v", m)
	}
	if m := engineMismatches(untraced, []opResult{{seed: 2, engine: "c"}}); len(m) != 1 {
		t.Fatalf("changed statistics not reported: %v", m)
	}
}

func TestUnion(t *testing.T) {
	spans := []span{{start: 10, end: 20}, {start: 0, end: 5}, {start: 15, end: 30}, {start: 30, end: 31}}
	if got := union(spans); got != 26 {
		t.Fatalf("union = %d, want 26", got)
	}
	if got := union(nil); got != 0 {
		t.Fatalf("union of nothing = %d", got)
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	spans := []span{
		{id: 1, parent: -1, kind: spanOp, start: 0, end: 100},
		{id: 2, parent: 1, kind: spanStream, n: 1, start: 0, end: 100},
		{id: 3, parent: 2, kind: spanExecute, n: 1, start: 10, end: 50},
		{id: 4, parent: 2, kind: spanExecute, n: 1, start: 30, end: 70},
		{id: 5, parent: 2, kind: spanLogWrite, n: 8, start: 80, end: 90},
	}
	m := layerMetrics(spans, layerInputs{ops: []opResult{{tests: 2}}, workers: 2})
	if got := m["campaign.self_frac"]; got != 0.3 {
		t.Errorf("self_frac = %v, want 0.3 (100 - union 70 of children)", got)
	}
	if got := m["campaign.worker_busy_frac"]; got != 0.4 {
		t.Errorf("worker_busy_frac = %v, want 0.4 (80 busy of 100 x 2 workers)", got)
	}
	if got := m["store.log_bytes_per_test"]; got != 4 {
		t.Errorf("log_bytes_per_test = %v, want 4", got)
	}
}

// BENCHMARK.json at the repository root names the same workloads and
// metrics, with the same units, as this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !sameNames(wls, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", wls, workloadNames())
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units [][2]string) {
		want := map[string]string{}
		for _, nu := range units {
			want[nu[0]] = nu[1]
		}
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(want))
		}
		for _, m := range listed {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s [%s], program reports unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eUnits)
	check("per_layer", spec.PerLayer, layerUnits)
}

// TestPeakRSSExcludesMemoryFreedBeforeTheReset pins that peak_rss_mb
// measures the window and not the references computed before it.
func TestPeakRSSExcludesMemoryFreedBeforeTheReset(t *testing.T) {
	const size = 256 << 20
	big := make([]byte, size)
	for i := 0; i < len(big); i += 4096 {
		big[i] = 1
	}
	before := peakRSS()
	runtime.KeepAlive(big)
	big = nil
	if !resetPeakRSS() {
		t.Skip("the peak resident set cannot be reset on this system")
	}
	after := peakRSS()
	if before-after < size/2 {
		t.Errorf("peak resident set %d MB before the reset and %d MB after it; want the freed %d MB gone",
			before>>20, after>>20, size>>20)
	}
}
