package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span at every boundary the wrappers in wrap.go
// sit on, plus the benchmark's own phases (one operation, its plan build,
// its engine calls, merge, classification, rendering, HTTP exchanges).
// Spans stay in memory and are written out once the run ends; the
// per-layer metrics are computed from them, so every number the traced
// run prints can be re-derived from the trace file.

// spanKind names a span. The table below is the on-disk name.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanBuildPlan
	spanStream // n = leg (1 or 2)
	spanMerge
	spanClassify
	spanRender
	spanPlanAt
	spanProvision
	spanAcquire
	spanExecute // n = tests executed
	spanRelease
	spanServerExecute // n = tests executed on a remote worker
	spanLogWrite      // n = bytes
	spanCkptWrite     // n = bytes
	spanStoreRead     // n = bytes
	spanSubmit
	spanQueue
	spanSSE
	spanEndLag
	spanLog
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanOp:            "op",
	spanBuildPlan:     "campaign.build_plan",
	spanStream:        "campaign.stream",
	spanMerge:         "campaign.merge",
	spanClassify:      "analysis.classify",
	spanRender:        "report.render",
	spanPlanAt:        "plan.at",
	spanProvision:     "target.provision",
	spanAcquire:       "target.acquire",
	spanExecute:       "target.execute",
	spanRelease:       "target.release",
	spanServerExecute: "remote.server_execute",
	spanLogWrite:      "store.log_write",
	spanCkptWrite:     "store.ckpt_write",
	spanStoreRead:     "store.read",
	spanSubmit:        "serve.submit",
	spanQueue:         "serve.queue",
	spanSSE:           "serve.sse",
	spanEndLag:        "serve.end_lag",
	spanLog:           "serve.log",
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch (monotonic clock).
type span struct {
	start, end int64
	n          int64
	id, parent int32 // parent -1: a root
	campaign   int32
	kind       spanKind
}

func (s span) dur() int64 { return s.end - s.start }

// tracer collects spans from every goroutine of the run.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// recorded returns the spans recorded so far. A traced window records
// millions of spans, so they are handed over, not copied: call it once
// recording has stopped.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// scope is one operation's trace context: the campaign id its spans share
// and the span new children attach to. A nil scope records nothing, so
// untraced code paths pay one nil check.
type scope struct {
	tr       *tracer
	campaign int32
	parent   atomic.Int32
}

func (t *tracer) newScope(campaign int) *scope {
	sc := &scope{tr: t, campaign: int32(campaign)}
	sc.parent.Store(-1)
	return sc
}

// leaf records a span of kind under the scope's current parent.
func (sc *scope) leaf(kind spanKind, start, end, n int64) {
	if sc == nil {
		return
	}
	sc.tr.record(span{start: start, end: end, n: n, id: sc.tr.nextID.Add(1),
		parent: sc.parent.Load(), campaign: sc.campaign, kind: kind})
}

// now is the tracer clock (0 on a nil scope).
func (sc *scope) now() int64 {
	if sc == nil {
		return 0
	}
	return sc.tr.now()
}

// phase runs fn inside a span of kind that is the parent of every span
// recorded on the scope meanwhile. Phases of one scope do not overlap.
func (sc *scope) phase(kind spanKind, n int64, fn func()) {
	if sc == nil {
		fn()
		return
	}
	id := sc.tr.nextID.Add(1)
	parent := sc.parent.Swap(id)
	start := sc.tr.now()
	fn()
	sc.tr.record(span{start: start, end: sc.tr.now(), n: n, id: id, parent: parent,
		campaign: sc.campaign, kind: kind})
	sc.parent.Store(parent)
}

// writeSpans dumps spans, ordered by start, as gzipped JSON Lines: one
// span per line, with its name, id, parent id (-1 for a root), campaign
// id, start and end (nanoseconds from the tracer's epoch) and count.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level cannot fail
	bw := bufio.NewWriter(zw)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"name":%q,"id":%d,"parent":%d,"campaign":%d,"start_ns":%d,"end_ns":%d,"n":%d}`+"\n",
			spanNames[s.kind], s.id, s.parent, s.campaign, s.start, s.end, s.n)
	}
	err = bw.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- per-layer metrics from spans -----------------------------------------

// layerInputs is what the per-layer metrics need beyond the spans: counts
// the operations reported and the run-level measurements.
type layerInputs struct {
	ops     []opResult
	workers int
	// codec costs, measured after the run over its merged records.
	encodeNs, decodeNs float64
	// traced and untraced throughput, for the tracing overhead.
	tracedTPS, untracedTPS float64
}

// layerMetrics computes every per-layer metric. A layer the workload does
// not exercise reports 0 (see README.md for which those are).
func layerMetrics(spans []span, in layerInputs) map[string]float64 {
	var tests int64
	for _, op := range in.ops {
		tests += int64(op.tests)
	}
	perTest := func(v float64) float64 {
		if tests == 0 {
			return 0
		}
		return v / float64(tests)
	}

	// Per-operation sums, keyed by campaign id, for the per-campaign
	// medians; per-kind totals for the per-test means.
	campaigns := map[int32]bool{}
	perOp := map[spanKind]map[int32]int64{}
	var count, total [numSpanKinds]int64
	var sumN [numSpanKinds]int64
	// streams holds each StreamPlan span with its plan, target and store
	// children, for the engine's self time and worker occupancy.
	type stream struct {
		span
		layer       []span
		firstTarget int64
	}
	streams := map[int32]*stream{}
	for _, s := range spans {
		if s.kind == spanStream {
			streams[s.id] = &stream{span: s, firstTarget: -1}
		}
		if s.kind == spanOp {
			campaigns[s.campaign] = true
		}
		if perOp[s.kind] == nil {
			perOp[s.kind] = map[int32]int64{}
		}
		perOp[s.kind][s.campaign] += s.dur()
		count[s.kind]++
		total[s.kind] += s.dur()
		sumN[s.kind] += s.n
	}
	medianMs := func(kind spanKind) float64 {
		if len(campaigns) == 0 {
			return 0
		}
		vals := make([]float64, 0, len(campaigns))
		for c := range campaigns {
			vals = append(vals, float64(perOp[kind][c])/1e6)
		}
		return median(vals)
	}
	meanNs := func(kind spanKind) float64 {
		if count[kind] == 0 {
			return 0
		}
		return float64(total[kind]) / float64(count[kind])
	}

	// Engine self time and worker occupancy: each StreamPlan span against
	// the union of its plan, target and store children.
	var streamNs, selfNs, busyNs int64
	for _, c := range spans {
		st := streams[c.parent]
		if st == nil {
			continue
		}
		switch c.kind {
		case spanPlanAt, spanLogWrite, spanCkptWrite, spanStoreRead:
			st.layer = append(st.layer, c)
		case spanProvision, spanAcquire, spanExecute, spanRelease:
			st.layer = append(st.layer, c)
			if c.kind != spanProvision {
				busyNs += c.dur()
			}
			if st.firstTarget < 0 || c.start < st.firstTarget {
				st.firstTarget = c.start
			}
		}
	}
	resume := map[int32]int64{}
	for _, st := range streams {
		streamNs += st.dur()
		selfNs += st.dur() - union(st.layer)
		st.layer = nil
		if st.n == 2 && st.firstTarget >= 0 {
			resume[st.campaign] += st.firstTarget - st.start
		}
	}
	frac := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	var resumeMs []float64
	for c := range campaigns {
		if v, ok := resume[c]; ok {
			resumeMs = append(resumeMs, float64(v)/1e6)
		}
	}

	var allocated, recycled []float64
	var sseEvents, sseBytes, wireBytes int64
	for _, op := range in.ops {
		allocated = append(allocated, float64(op.pool.Allocated))
		recycled = append(recycled, float64(op.pool.Reused))
		sseEvents += int64(op.sseEvents)
		sseBytes += op.sseBytes
		wireBytes += op.wireBytes
	}

	overhead := 0.0
	if in.untracedTPS > 0 {
		overhead = 1 - in.tracedTPS/in.untracedTPS
	}
	serverNs := total[spanServerExecute]
	wireNs := int64(0)
	if serverNs > 0 {
		wireNs = total[spanExecute] - serverNs
	}
	return map[string]float64{
		"campaign.build_plan_ms":     medianMs(spanBuildPlan),
		"campaign.provision_ms":      medianMs(spanProvision),
		"campaign.stream_ms":         medianMs(spanStream),
		"campaign.self_frac":         frac(selfNs, streamNs),
		"campaign.worker_busy_frac":  frac(busyNs, streamNs*int64(in.workers)),
		"campaign.resume_ms":         median(resumeMs),
		"campaign.merge_ms":          medianMs(spanMerge),
		"codec.encode_ns":            in.encodeNs,
		"codec.decode_ns":            in.decodeNs,
		"plan.at_ns":                 meanNs(spanPlanAt),
		"target.acquire_ns":          meanNs(spanAcquire),
		"target.execute_us":          frac(total[spanExecute], sumN[spanExecute]) / 1e3,
		"target.release_ns":          meanNs(spanRelease),
		"sparc.pool_allocated":       median(allocated),
		"sparc.pool_recycled":        median(recycled),
		"store.log_writes_per_test":  perTest(float64(count[spanLogWrite])),
		"store.log_write_ns":         meanNs(spanLogWrite),
		"store.log_bytes_per_test":   perTest(float64(sumN[spanLogWrite])),
		"store.ckpt_writes_per_test": perTest(float64(count[spanCkptWrite])),
		"store.ckpt_write_ns":        meanNs(spanCkptWrite),
		"store.read_ms":              medianMs(spanStoreRead),
		"analysis.classify_ms":       medianMs(spanClassify),
		"report.render_ms":           medianMs(spanRender),
		"serve.submit_ms":            medianMs(spanSubmit),
		"serve.queue_ms":             medianMs(spanQueue),
		"serve.sse_events_per_test":  perTest(float64(sseEvents)),
		"serve.sse_bytes_per_test":   perTest(float64(sseBytes)),
		"serve.end_lag_ms":           medianMs(spanEndLag),
		"serve.log_ms":               medianMs(spanLog),
		"remote.wire_us":             perTest(float64(wireNs)) / 1e3,
		"remote.server_execute_us":   frac(serverNs, sumN[spanServerExecute]) / 1e3,
		"remote.bytes_per_test":      perTest(float64(wireBytes)),
		"trace.overhead_frac":        overhead,
	}
}

// union returns the total length covered by the spans' intervals.
func union(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	var covered int64
	curStart, curEnd := spans[0].start, spans[0].end
	for _, s := range spans[1:] {
		if s.start > curEnd {
			covered += curEnd - curStart
			curStart, curEnd = s.start, s.end
			continue
		}
		if s.end > curEnd {
			curEnd = s.end
		}
	}
	return covered + curEnd - curStart
}
