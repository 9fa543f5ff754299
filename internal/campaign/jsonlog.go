package campaign

import (
	"encoding/json"
	"fmt"
	"io"

	"xmrobust/internal/apispec"
	"xmrobust/internal/cover"
	"xmrobust/internal/dict"
	"xmrobust/internal/inject"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// JSONRecord is the serialised form of one test's execution log — the
// per-test record the paper's shell-script harness appended to the
// campaign log for the offline Log Analysis phase. It is self-contained:
// Result reconstructs the in-memory execution log from it, so a streamed
// campaign's analysis can run entirely off the shard files.
type JSONRecord struct {
	Func string `json:"func"`
	// Seq is the test's position in campaign order: the index into the
	// generated dataset list. Shard files interleave arbitrarily; sorting
	// records by Seq restores campaign order (see MergeShards).
	Seq int `json:"seq"`
	// Target names the execution backend that produced the log; State is
	// the phantom system state the test fired in (§V extension, empty
	// for the nominal data-type fault model).
	Target      string   `json:"target,omitempty"`
	State       string   `json:"state,omitempty"`
	TestPart    int      `json:"test_part,omitempty"`
	Dataset     []string `json:"dataset"`
	Descs       []string `json:"descs,omitempty"`
	Validity    []string `json:"validity,omitempty"`
	Invocations int      `json:"invocations"`
	Returns     []int32  `json:"returns"`
	ReturnNames []string `json:"return_names"`
	KernelState string   `json:"kernel_state"`
	KernelHalt  string   `json:"kernel_halt,omitempty"`
	ColdResets  uint32   `json:"cold_resets"`
	WarmResets  uint32   `json:"warm_resets"`
	// HMEvents is the human-readable health-monitor log; HMLog carries the
	// same entries structured, for reconstruction.
	HMEvents    []string      `json:"hm_events,omitempty"`
	HMLog       []JSONHMEvent `json:"hm,omitempty"`
	PartState   string        `json:"part_state"`
	PartDetail  string        `json:"part_detail,omitempty"`
	SimCrashed  bool          `json:"sim_crashed"`
	CrashReason string        `json:"crash_reason,omitempty"`
	RunErr      string        `json:"run_err,omitempty"`
	// Cover is the kernel edge coverage of the run in sparse form
	// (ascending site identifiers), present when coverage collection was
	// on; CoverSig is its stable signature, the cluster key of
	// behaviourally identical tests.
	Cover    []uint32 `json:"cover,omitempty"`
	CoverSig string   `json:"cover_sig,omitempty"`
	// Divergence is the diff target's disagreement record (nil outside
	// diff campaigns and on agreeing tests).
	Divergence *Divergence `json:"divergence,omitempty"`
	// Injection is the SEU record of an inject-target run: where the
	// schedule flipped a bit and how the injected run's observables
	// compared to the clean reference leg (nil outside inject campaigns
	// and on tests the schedule left clean).
	Injection *inject.Injection `json:"injection,omitempty"`
}

// JSONHMEvent is one structured health-monitor log entry.
type JSONHMEvent struct {
	Seq    uint32 `json:"seq"`
	Time   int64  `json:"t"`
	Event  int    `json:"ev"`
	Action int    `json:"act"`
	Sys    bool   `json:"sys,omitempty"`
	Part   int    `json:"part"`
	Detail string `json:"detail,omitempty"`
}

// JSONSummary is the legacy name of the decoded record view; external
// tooling reads campaign logs through it.
type JSONSummary = JSONRecord

// ToRecord serialises one execution log as the campaign-log record at
// position seq.
func ToRecord(seq int, r Result) JSONRecord {
	// A fresh scratch per call keeps the historical behaviour: every
	// slice in the returned record is caller-owned.
	var s recordScratch
	return s.toRecord(seq, r)
}

// recordScratch owns the slice capacity behind a shard writer's records:
// toRecord hands out records whose slices alias the scratch, so one
// encode-and-discard cycle per record stops allocating in steady state.
// The aliased record is only valid until the next toRecord call.
type recordScratch struct {
	dataset, descs, validity []string
	returns                  []int32
	returnNames              []string
	hmEvents                 []string
	hmLog                    []JSONHMEvent
}

// toRecord is ToRecord with scratch-backed slices. Field-absence
// semantics are identical: an empty field stays nil — never a non-nil
// empty slice — so the wire bytes match ToRecord exactly.
func (s *recordScratch) toRecord(seq int, r Result) JSONRecord {
	out := JSONRecord{
		Func:        r.Dataset.Func.Name,
		Seq:         seq,
		Target:      r.Target,
		State:       r.Dataset.State,
		TestPart:    r.TestPartition,
		Invocations: r.Invocations,
		KernelState: r.KernelState.String(),
		KernelHalt:  r.KernelHalt,
		ColdResets:  r.ColdResets,
		WarmResets:  r.WarmResets,
		PartState:   r.PartState.String(),
		PartDetail:  r.PartDetail,
		SimCrashed:  r.SimCrashed,
		CrashReason: r.CrashReason,
		RunErr:      r.RunErr,
	}
	if out.Target == target.SimName {
		// The default backend serialises as the field's absence: sim
		// campaign logs stay byte-identical to pre-target-layer logs,
		// and Result restores the default on read.
		out.Target = ""
	}
	if len(r.Resolved) > 0 {
		s.dataset, s.descs, s.validity = s.dataset[:0], s.descs[:0], s.validity[:0]
		for _, v := range r.Resolved {
			s.dataset = append(s.dataset, v.Raw)
			s.descs = append(s.descs, v.Desc)
			s.validity = append(s.validity, v.Validity.String())
		}
		out.Dataset, out.Descs, out.Validity = s.dataset, s.descs, s.validity
	}
	if len(r.Returns) > 0 {
		s.returns, s.returnNames = s.returns[:0], s.returnNames[:0]
		for _, rc := range r.Returns {
			s.returns = append(s.returns, int32(rc))
			s.returnNames = append(s.returnNames, rc.String())
		}
		out.Returns, out.ReturnNames = s.returns, s.returnNames
	}
	if len(r.HMEvents) > 0 {
		s.hmEvents, s.hmLog = s.hmEvents[:0], s.hmLog[:0]
		for _, e := range r.HMEvents {
			s.hmEvents = append(s.hmEvents, e.String())
			s.hmLog = append(s.hmLog, JSONHMEvent{
				Seq: e.Seq, Time: int64(e.Time), Event: int(e.Event), Action: int(e.Action),
				Sys: e.SystemScope, Part: e.PartitionID, Detail: e.Detail,
			})
		}
		out.HMEvents, out.HMLog = s.hmEvents, s.hmLog
	}
	if r.Cover != nil {
		out.Cover = r.Cover.Sites()
		out.CoverSig = fmt.Sprintf("%016x", r.Cover.Signature())
	}
	out.Divergence = r.Divergence
	out.Injection = r.Injection
	return out
}

// Result reconstructs the in-memory execution log from a record. The
// hypercall signature is resolved against h (default spec when nil);
// records of hypercalls absent from the spec keep a bare function so
// harness-error records still classify.
func (rec JSONRecord) Result(h *apispec.Header) (Result, error) {
	ds, err := rec.TestDataset(h)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Dataset:       ds,
		Target:        rec.Target,
		TestPartition: rec.TestPart,
		Invocations:   rec.Invocations,
		KernelHalt:    rec.KernelHalt,
		ColdResets:    rec.ColdResets,
		WarmResets:    rec.WarmResets,
		PartDetail:    rec.PartDetail,
		SimCrashed:    rec.SimCrashed,
		CrashReason:   rec.CrashReason,
		RunErr:        rec.RunErr,
		Divergence:    rec.Divergence,
		Injection:     rec.Injection,
	}
	if r.Target == "" {
		// Records without a target field are the default backend's —
		// including every log written before the target layer existed.
		r.Target = target.SimName
	}
	// The state/return vocabularies parse through the generated inverse
	// maps xm shares with every campaign-log reader; unknown names keep
	// the zero value, the historic lenient behaviour.
	if ks, ok := xm.ParseKState(rec.KernelState); ok {
		r.KernelState = ks
	}
	if ps, ok := xm.ParsePState(rec.PartState); ok {
		r.PartState = ps
	}
	for _, v := range ds.Values {
		r.Resolved = append(r.Resolved, dict.Resolved{Value: v})
	}
	for _, rc := range rec.Returns {
		r.Returns = append(r.Returns, xm.RetCode(rc))
	}
	for _, e := range rec.HMLog {
		r.HMEvents = append(r.HMEvents, xm.HMLogEntry{
			Seq: e.Seq, Time: xm.Time(e.Time), Event: xm.HMEvent(e.Event),
			Action: xm.HMAction(e.Action), SystemScope: e.Sys,
			PartitionID: e.Part, Detail: e.Detail,
		})
	}
	if len(rec.Cover) > 0 {
		r.Cover = cover.FromSites(rec.Cover)
	}
	return r, nil
}

// TestDataset rebuilds the inputs of the test a record logs: the
// hypercall, resolved against h by name (default spec when nil; a bare
// function when the spec does not know it), the dataset values with
// their descriptions and validity hints, the campaign position (Seq)
// and the system state. It reads only Func, Seq, State, Dataset, Descs
// and Validity — the fields a remote lease carries.
func (rec *JSONRecord) TestDataset(h *apispec.Header) (testgen.Dataset, error) {
	if h == nil {
		h = apispec.Default()
	}
	f, ok := h.Function(rec.Func)
	if !ok {
		f = apispec.Function{Name: rec.Func}
	}
	values := make([]dict.Value, len(rec.Dataset))
	for i, raw := range rec.Dataset {
		v := dict.Value{Raw: raw}
		if i < len(rec.Descs) {
			v.Desc = rec.Descs[i]
		}
		if i < len(rec.Validity) {
			val, err := dict.ParseValidity(rec.Validity[i])
			if err != nil {
				return testgen.Dataset{}, fmt.Errorf("campaign: record seq %d: %w", rec.Seq, err)
			}
			v.Validity = val
		}
		values[i] = v
	}
	return testgen.Dataset{Func: f, Index: rec.Seq, Values: values, State: rec.State}, nil
}

// WriteJSON streams the campaign log as JSON Lines: one self-contained
// record per test, greppable and loadable without holding the whole
// campaign in memory.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	for i := range results {
		if err := enc.Encode(ToRecord(i, results[i])); err != nil {
			return fmt.Errorf("campaign: writing test %d: %w", i, err)
		}
	}
	return nil
}

// ReadJSON decodes a JSON Lines campaign log into summaries.
func ReadJSON(r io.Reader) ([]JSONSummary, error) {
	dec := json.NewDecoder(r)
	var out []JSONSummary
	for dec.More() {
		var s JSONSummary
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("campaign: reading record %d: %w", len(out), err)
		}
		out = append(out, s)
	}
	return out, nil
}

// VerifyRoundTrip sanity-checks the export path against the in-memory
// results (used by tests and by xmfuzz's self-check).
func VerifyRoundTrip(results []Result, summaries []JSONSummary) error {
	if len(results) != len(summaries) {
		return fmt.Errorf("campaign: %d results vs %d records", len(results), len(summaries))
	}
	for i, r := range results {
		s := summaries[i]
		if s.Func != r.Dataset.Func.Name {
			return fmt.Errorf("campaign: record %d func %q vs %q", i, s.Func, r.Dataset.Func.Name)
		}
		if len(s.Returns) != len(r.Returns) {
			return fmt.Errorf("campaign: record %d returns %d vs %d", i, len(s.Returns), len(r.Returns))
		}
		for j := range r.Returns {
			if xm.RetCode(s.Returns[j]) != r.Returns[j] {
				return fmt.Errorf("campaign: record %d return %d mismatch", i, j)
			}
		}
	}
	return nil
}
