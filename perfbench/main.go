// Command perfbench is the repository's benchmark: it runs one of four
// production-shaped campaign workloads in-process against the code of
// this checkout, checks every output against a reference, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload cli_resume --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"xmrobust/internal/campaign"
)

// processStart approximates the process start: package initialisation
// runs before main, right after the runtime starts.
var processStart = time.Now()

const (
	// seedsPerRun is how many distinct campaign seeds one run cycles
	// through; each has its reference computed once.
	seedsPerRun = 8
	// setupsPerRun is how many times a run sets its workload up;
	// setup_s is the median.
	setupsPerRun = 101
	// maxWindow caps a measurement window that is still short of the
	// samples its p90 needs, so a run always ends in bounded time.
	maxWindow = 120 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits and layerUnits list every metric with its unit, in report
// order. BENCHMARK.json names the same metrics.
var e2eUnits = [][2]string{
	{"setup_s", "s"},
	{"tests_per_s", "tests/s"},
	{"campaign_ms.p50", "ms"},
	{"campaign_ms.p90", "ms"},
	{"first_record_ms.p50", "ms"},
	{"cpu_us_per_test", "us"},
	{"allocs_per_test", "count"},
	{"alloc_bytes_per_test", "B"},
	{"peak_rss_mb", "MB"},
}

var layerUnits = [][2]string{
	{"campaign.build_plan_ms", "ms"},
	{"campaign.provision_ms", "ms"},
	{"campaign.stream_ms", "ms"},
	{"campaign.self_frac", "ratio"},
	{"campaign.worker_busy_frac", "ratio"},
	{"campaign.resume_ms", "ms"},
	{"campaign.merge_ms", "ms"},
	{"codec.encode_ns", "ns"},
	{"codec.decode_ns", "ns"},
	{"plan.at_ns", "ns"},
	{"target.acquire_ns", "ns"},
	{"target.execute_us", "us"},
	{"target.release_ns", "ns"},
	{"sparc.pool_allocated", "count"},
	{"sparc.pool_recycled", "count"},
	{"store.log_writes_per_test", "count"},
	{"store.log_write_ns", "ns"},
	{"store.log_bytes_per_test", "B"},
	{"store.ckpt_writes_per_test", "count"},
	{"store.ckpt_write_ns", "ns"},
	{"store.read_ms", "ms"},
	{"analysis.classify_ms", "ms"},
	{"report.render_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.sse_events_per_test", "count"},
	{"serve.sse_bytes_per_test", "B"},
	{"serve.end_lag_ms", "ms"},
	{"serve.log_ms", "ms"},
	{"remote.wire_us", "us"},
	{"remote.server_execute_us", "us"},
	{"remote.bytes_per_test", "B"},
	{"trace.overhead_frac", "ratio"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// Test seams: a smaller plan, fewer set-ups, and a change applied
	// to every reference before the operations are checked against it.
	plan    string
	setups  int
	corrupt func(*reference)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every campaign seed derives from it")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the measurement window")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for scratch data, results and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	wl, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, report, err := execute(wl, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprint(stdout, report)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// execute runs one workload and returns its result line and a
// human-readable report.
func execute(wl workload, o options) (result, string, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, "", err
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return result{}, "", err
	}
	defer os.RemoveAll(work)
	e := &env{work: work, workers: runtime.NumCPU(), plan: wl.plan}
	if o.plan != "" {
		e.plan = o.plan
	}
	clients := wl.clients(e.workers)
	window := time.Duration(o.seconds * float64(time.Second))

	var b strings.Builder
	h := fingerprint()
	hj, _ := json.Marshal(h)
	fmt.Fprintf(&b, "perfbench %s seed=%d seconds=%g trace=%v clients=%d workers=%d\nhost %s\n",
		wl.name, o.seed, o.seconds, o.trace, clients, e.workers, hj)

	var (
		res     result
		details map[string]any
	)
	if o.trace {
		res, details, err = tracedRun(wl, e, o, clients, window, &b)
	} else {
		res, details, err = plainRun(wl, e, o, clients, window, &b)
	}
	if err != nil {
		return result{}, "", err
	}
	if err := writeResult(o, wl, h, res, details); err != nil {
		return result{}, "", err
	}
	return res, b.String(), nil
}

// prepare computes the per-seed references and runs one warm-up
// operation per client, outside every measurement.
func prepare(wl workload, e *env, fx fixture, o options, clients int) ([]int64, map[int64]*reference, window, error) {
	seeds := campaignSeeds(o.seed, seedsPerRun)
	refs := map[int64]*reference{}
	for i, s := range seeds {
		ref, err := wl.reference(e, s)
		if err != nil {
			return nil, nil, window{}, fmt.Errorf("reference for campaign seed %d: %w", s, err)
		}
		if i > 0 {
			ref.log = nil // only the first seed's log feeds the codec measurement
		}
		if o.corrupt != nil {
			o.corrupt(ref)
		}
		refs[s] = ref
	}
	warm := measure(fx, clients, seeds, refs, loop{minOps: clients, maxDur: maxWindow})
	return seeds, refs, warm, nil
}

// plainRun is the untraced run: set-up several times, then one closed-loop
// window, reporting the end-to-end metrics.
func plainRun(wl workload, e *env, o options, clients int, win time.Duration, b *strings.Builder) (result, map[string]any, error) {
	// The window's fixture is the process's first set-up, timed from
	// process start and reported for reference. setup_s is the median of
	// the set-ups after the window: a process's first set-ups run cold
	// (code, caches, heap) at two to three times the warm cost, and a
	// median over a mix of cold and warm samples jumps between the two
	// from run to run.
	fx, err := wl.setup(e)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	cold := time.Since(processStart).Seconds()
	seeds, refs, warm, err := prepare(wl, e, fx, o, clients)
	if err != nil {
		fx.close()
		return result{}, nil, err
	}
	// The peak resident set covers the window alone: not the references,
	// whose eager library runs hold every result in memory.
	peakReset := resetPeakRSS()
	ticks0, haveTicks := readCPUTicks()
	w := measure(fx, clients, seeds, refs, loop{minDur: win, minOps: minSamplesFor(0.9), maxDur: maxWindow, kBase: clients})
	peak := peakRSS()
	ticks1, _ := readCPUTicks()
	if err := fx.close(); err != nil {
		return result{}, nil, fmt.Errorf("teardown: %w", err)
	}
	setups := setupsPerRun
	if o.setups > 0 {
		setups = o.setups
	}
	setupS, err := timeSetups(wl, e, setups)
	if err != nil {
		return result{}, nil, err
	}

	var lat, first []float64
	for _, op := range w.ops {
		lat = append(lat, ms(op.latency))
		first = append(first, ms(op.firstRecord))
	}
	m := map[string]float64{
		"setup_s":             median(setupS),
		"campaign_ms.p50":     median(lat),
		"first_record_ms.p50": median(first),
	}
	latP90, err := tailPercentile(lat, 0.9)
	if err != nil {
		return result{}, nil, fmt.Errorf("campaign_ms: %w", err)
	}
	m["campaign_ms.p90"] = latP90.Value
	// The first-record p90 is reported but is not a benchmark metric: it
	// moved by a quarter between runs of the same code (see README.md).
	firstP90, err := tailPercentile(first, 0.9)
	if err != nil {
		return result{}, nil, fmt.Errorf("first_record_ms: %w", err)
	}
	tests := float64(w.tests())
	if tests == 0 {
		return result{}, nil, errors.New("the window completed no tests")
	}
	m["tests_per_s"] = w.testsPerSec()
	m["cpu_us_per_test"] = float64(w.cpu.Microseconds()) / tests
	m["allocs_per_test"] = float64(w.mallocs) / tests
	m["alloc_bytes_per_test"] = float64(w.bytes) / tests
	m["peak_rss_mb"] = float64(peak) / (1 << 20)

	attempted := len(w.ops) + len(warm.ops)
	failed := w.failed() + warm.failed()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, nu := range e2eUnits {
		res.Metrics[nu[0]] = metric{Value: m[nu[0]], Unit: nu[1]}
	}
	fmt.Fprintf(b, "window %.2fs, %d operations (%d warm-up), %d tests; p90 over %d samples, %d beyond it\n",
		w.wall.Seconds(), len(w.ops), len(warm.ops), int(tests), latP90.N, latP90.Beyond)
	q1, q3 := quartiles(lat)
	fmt.Fprintf(b, "campaign_ms quartiles %.4f .. %.4f\n", q1, q3)
	fmt.Fprintf(b, "setup_s over %d set-ups after the window; the first set-up, from process start, took %.4fs\n",
		len(setupS), cold)
	fmt.Fprintf(b, "cpu_us_per_test %.1f of which system %.1f\n", float64(w.cpu.Microseconds())/tests, float64(w.sys.Microseconds())/tests)
	steal := -1.0 // unknown
	if haveTicks {
		steal = stealFrac(ticks0, ticks1)
		fmt.Fprintf(b, "the hypervisor stole %.1f%% of the machine's CPU time during the window\n", 100*steal)
	}
	if !peakReset {
		fmt.Fprintln(b, "peak_rss_mb is the process's lifetime peak: the peak could not be reset before the window")
	}
	fmt.Fprintf(b, "failed_frac %g (%d of %d)\n", frac(failed, attempted), failed, attempted)
	printMetrics(b, res.Metrics, e2eUnits)
	fmt.Fprintf(b, "  %-28s %14.4f ms (reported, not a benchmark metric)\n", "first_record_ms.p90", firstP90.Value)
	printFailures(b, slices.Concat(warm.ops, w.ops))
	return res, map[string]any{
		"samples": len(w.ops), "window_s": w.wall.Seconds(),
		"first_setup_s": cold, "setups_s": setupS, "first_record_ms.p90": firstP90.Value,
		"host_steal_frac": steal, "cpu_sys_us_per_test": float64(w.sys.Microseconds()) / tests,
		"campaign_ms": lat, "first_record_ms": first, // in completion order
	}, nil
}

// timeSetups sets the workload up n times, closing each fixture, and
// returns each set-up's duration in seconds. Each set-up starts from a
// collected heap and runs without a collection, as a new process's
// set-up does (its heap is under the first collection's target): a
// collection that the window or an earlier set-up left pending made the
// median differ by half between processes.
func timeSetups(wl workload, e *env, n int) ([]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := wl.setup(e)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if err := f.close(); err != nil {
			return nil, fmt.Errorf("setup teardown: %w", err)
		}
	}
	return times, nil
}

// tracedRun measures an untraced window and a traced one (each half the
// run), checks that tracing changed no output and no engine statistic,
// and reports the per-layer metrics.
func tracedRun(wl workload, e *env, o options, clients int, win time.Duration, b *strings.Builder) (result, map[string]any, error) {
	half := win / 2
	fx, err := wl.setup(e)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	seeds, refs, warm, err := prepare(wl, e, fx, o, clients)
	if err != nil {
		fx.close()
		return result{}, nil, err
	}
	kBase := clients
	plain := measure(fx, clients, seeds, refs, loop{minDur: half, minOps: len(seeds), maxDur: maxWindow, kBase: kBase})
	if err := fx.close(); err != nil {
		return result{}, nil, fmt.Errorf("teardown: %w", err)
	}
	kBase += len(plain.ops) + clients

	te := *e
	te.tr = newTracer()
	tfx, err := wl.setup(&te)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced setup: %w", err)
	}
	// One traced warm-up operation per client, then drop its spans.
	twarm := measure(tfx, clients, seeds, refs, loop{minOps: clients, maxDur: maxWindow, kBase: kBase})
	kBase += clients
	te.tr.reset()
	traced := measure(tfx, clients, seeds, refs, loop{minDur: half, minOps: len(seeds), maxDur: maxWindow, kBase: kBase})
	if err := tfx.close(); err != nil {
		return result{}, nil, fmt.Errorf("traced teardown: %w", err)
	}

	untracedOps := slices.Concat(warm.ops, plain.ops)
	tracedOps := slices.Concat(twarm.ops, traced.ops)
	mismatch := engineMismatches(untracedOps, tracedOps)
	enc, dec, err := codecCost(refs[seeds[0]].log)
	if err != nil {
		return result{}, nil, err
	}
	spans := te.tr.recorded()
	m := layerMetrics(spans, layerInputs{
		ops: traced.ops, workers: e.workers,
		encodeNs: enc, decodeNs: dec,
		tracedTPS: traced.testsPerSec(), untracedTPS: plain.testsPerSec(),
	})
	tracePath := filepath.Join(o.out, "trace-"+wl.name+".jsonl.gz")
	if err := writeSpans(tracePath, spans); err != nil {
		return result{}, nil, err
	}

	all := slices.Concat(untracedOps, tracedOps)
	attempted, failed := len(all), len(mismatch)+window{ops: all}.failed()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, nu := range layerUnits {
		res.Metrics[nu[0]] = metric{Value: m[nu[0]], Unit: nu[1]}
	}
	fmt.Fprintf(b, "untraced window %.2fs, %d operations, %.0f tests/s; traced window %.2fs, %d operations, %.0f tests/s; %d spans in %s\n",
		plain.wall.Seconds(), len(plain.ops), plain.testsPerSec(),
		traced.wall.Seconds(), len(traced.ops), traced.testsPerSec(), len(spans), tracePath)
	for _, msg := range mismatch {
		fmt.Fprintln(b, "tracing changed the engine statistics:", msg)
	}
	printMetrics(b, res.Metrics, layerUnits)
	printFailures(b, all)
	return res, map[string]any{"spans": len(spans), "trace": tracePath}, nil
}

// engineMismatches compares the engine statistics of traced operations
// with the untraced ones of the same campaign seed. Tracing that changes
// them would measure another engine path than the untraced run's.
func engineMismatches(untraced, traced []opResult) []string {
	want := map[int64]string{}
	var out []string
	for _, op := range untraced {
		if op.engine == "" || op.err != nil {
			continue
		}
		if prev, ok := want[op.seed]; ok && prev != op.engine {
			out = append(out, fmt.Sprintf("seed %d untraced: %s vs %s", op.seed, prev, op.engine))
		}
		want[op.seed] = op.engine
	}
	for _, op := range traced {
		if w, ok := want[op.seed]; ok && op.engine != w {
			out = append(out, fmt.Sprintf("seed %d: traced %s, untraced %s", op.seed, op.engine, w))
		}
	}
	return out
}

// codecCost measures the json record codec — the default, which every
// workload's shards use — over a run's merged log: the median over
// passes of the per-record Decode and AppendEncode cost.
func codecCost(log []byte) (encNs, decNs float64, err error) {
	codec, err := campaign.NewCodec("json")
	if err != nil {
		return 0, 0, err
	}
	lines := strings.Split(strings.TrimSuffix(string(log), "\n"), "\n")
	recs := make([]campaign.JSONRecord, len(lines))
	var encs, decs []float64
	var buf []byte
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for i, l := range lines {
			recs[i] = campaign.JSONRecord{}
			if err := codec.Decode([]byte(l), &recs[i]); err != nil {
				return 0, 0, fmt.Errorf("codec: decode record %d: %w", i, err)
			}
		}
		decs = append(decs, float64(time.Since(t0).Nanoseconds())/float64(len(lines)))
		t0 = time.Now()
		for i := range recs {
			if buf, err = codec.AppendEncode(buf[:0], &recs[i]); err != nil {
				return 0, 0, fmt.Errorf("codec: encode record %d: %w", i, err)
			}
		}
		encs = append(encs, float64(time.Since(t0).Nanoseconds())/float64(len(lines)))
	}
	return median(encs), median(decs), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func printMetrics(b *strings.Builder, m map[string]metric, order [][2]string) {
	for _, nu := range order {
		fmt.Fprintf(b, "  %-28s %14.4f %s\n", nu[0], m[nu[0]].Value, nu[1])
	}
}

// printFailures lists up to five distinct failure messages.
func printFailures(b *strings.Builder, ops []opResult) {
	seen := map[string]int{}
	for _, op := range ops {
		if op.err != nil {
			seen[op.err.Error()]++
		}
	}
	msgs := make([]string, 0, len(seen))
	for m := range seen {
		msgs = append(msgs, m)
	}
	sort.Strings(msgs)
	for i, m := range msgs {
		if i == 5 {
			fmt.Fprintf(b, "  ... and %d more distinct failures\n", len(msgs)-i)
			break
		}
		fmt.Fprintf(b, "  FAILED x%d: %s\n", seen[m], m)
	}
}

// writeResult keeps the full result, with the host fingerprint, next to
// the scratch data.
func writeResult(o options, wl workload, h host, res result, details map[string]any) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full := map[string]any{
		"workload": wl.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": h, "result": res, "details": details,
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
