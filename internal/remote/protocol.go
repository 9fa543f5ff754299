// Package remote is the distributed execution layer: it puts any local
// target behind a TCP connection (Server, served by cmd/xmworker) and
// registers the "remote:<addr>[,<addr>...]" campaign backend that fans
// leases across those workers (client.go). The wire carries what the
// execution seam already made serialisable — datasets ship as resolved
// dict values, results return as campaign-log records through the raw
// codec — so a remote campaign's merged log is byte-identical to the
// same campaign executed in-process: the record round-trip is a fixed
// point (see FuzzJSONRecordRoundTrip) and duplicated executions dedupe
// by seq at merge time.
package remote

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// ProtoVersion is the wire protocol version; both ends refuse a
// mismatch rather than misparse each other.
const ProtoVersion = 1

// maxFrame bounds one length-prefixed frame — far above any real lease
// but small enough that a corrupt length prefix cannot ask for the moon.
const maxFrame = 64 << 20

// frameOverhead is the per-frame framing cost (the 4-byte length
// prefix), counted alongside payload bytes in the wire-byte metrics.
const frameOverhead = 4

// WriteFrame writes one length-prefixed frame: a 4-byte big-endian
// payload length followed by the payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("remote: frame of %d bytes exceeds the %d-byte limit", len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Hello is the first frame a worker sends on every connection: its
// protocol version and the target spec it executes on. The client
// refuses a version or target mismatch — mixing targets would splice
// two backends' logs into one campaign.
type Hello struct {
	Proto  int    `json:"proto"`
	Target string `json:"target"`
}

// wireValue is one resolved dictionary value on the wire — the same
// three fields a campaign-log record carries per parameter.
type wireValue struct {
	Raw      string `json:"raw"`
	Desc     string `json:"desc,omitempty"`
	Validity string `json:"validity,omitempty"`
}

// wireTest is one dataset to execute: its global campaign position plus
// everything the worker needs to rebuild the testgen.Dataset. The
// hypercall ships by name — the worker resolves the signature from its
// spec header, exactly as the campaign-log reader does.
type wireTest struct {
	Pos    int         `json:"pos"`
	Func   string      `json:"func"`
	State  string      `json:"state,omitempty"`
	Values []wireValue `json:"values"`
}

// wireSpec is the per-run execution parameters on the wire: the RunSpec
// knobs that shape a log. Header and Dict stay local (datasets ship
// resolved; the worker's spec header supplies signatures), and Inject is
// never set at this layer — SEU composites run worker-side, inside the
// worker's own target spec.
type wireSpec struct {
	Faults   xm.FaultSet `json:"faults"`
	MAFs     int         `json:"mafs"`
	Stress   bool        `json:"stress,omitempty"`
	Coverage bool        `json:"coverage,omitempty"`
}

// execRequest is one lease on the wire: an ID for response matching
// (connections pipeline; responses may interleave) plus the spec and
// tests to execute.
type execRequest struct {
	ID    uint64     `json:"id"`
	Spec  wireSpec   `json:"spec"`
	Tests []wireTest `json:"tests"`
}

// respHeader is the first line of a response frame; N campaign-log
// record lines (raw-codec JSON Lines, in request order) follow. Err is
// set only for malformed requests — per-test failures travel inside the
// records as RunErr, like every other harness error.
type respHeader struct {
	ID  uint64 `json:"id"`
	N   int    `json:"n"`
	Err string `json:"err,omitempty"`
}

// specToWire projects a RunSpec onto the wire.
func specToWire(spec target.RunSpec) wireSpec {
	return wireSpec{Faults: spec.Faults, MAFs: spec.MAFs, Stress: spec.Stress, Coverage: spec.Coverage}
}

// specFromWire rebuilds the worker-side RunSpec around the header and
// dictionary the worker executes against.
func specFromWire(ws wireSpec, h *apispec.Header, d *dict.Dictionary) target.RunSpec {
	return target.RunSpec{
		Faults:   ws.Faults,
		MAFs:     ws.MAFs,
		Stress:   ws.Stress,
		Header:   h,
		Dict:     d,
		Coverage: ws.Coverage,
	}
}

// testToWire projects one dataset at its campaign position onto the wire.
func testToWire(pos int, ds testgen.Dataset) wireTest {
	wt := wireTest{Pos: pos, Func: ds.Func.Name, State: ds.State}
	for _, v := range ds.Values {
		wt.Values = append(wt.Values, wireValue{Raw: v.Raw, Desc: v.Desc, Validity: v.Validity.String()})
	}
	return wt
}

// testFromWire rebuilds the dataset, resolving the hypercall signature
// against h by name (a bare Function when the spec does not know it, the
// campaign-log reader's lenient behaviour).
func testFromWire(wt wireTest, h *apispec.Header) (testgen.Dataset, error) {
	f, ok := h.Function(wt.Func)
	if !ok {
		f = apispec.Function{Name: wt.Func}
	}
	values := make([]dict.Value, 0, len(wt.Values))
	for _, wv := range wt.Values {
		v := dict.Value{Raw: wv.Raw, Desc: wv.Desc}
		if wv.Validity != "" {
			val, err := dict.ParseValidity(wv.Validity)
			if err != nil {
				return testgen.Dataset{}, fmt.Errorf("remote: test %d: %w", wt.Pos, err)
			}
			v.Validity = val
		}
		values = append(values, v)
	}
	return testgen.Dataset{Func: f, Index: wt.Pos, Values: values, State: wt.State}, nil
}

// encodeJSON marshals a protocol message, panicking on the impossible
// (every message type marshals by construction).
func encodeJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("remote: marshal %T: %v", v, err))
	}
	return data
}
