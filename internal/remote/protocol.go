// Package remote is the distributed execution layer: it puts any local
// target behind a TCP connection (Server, served by cmd/xmworker) and
// registers the "remote:<addr>[,<addr>...]" campaign backend that fans
// leases across those workers (client.go). The wire carries what the
// execution seam already made serialisable — leases ship as the input
// fields of campaign-log records, results return as whole campaign-log
// records, both through the raw codec — so a remote campaign's merged
// log is byte-identical to the same campaign executed in-process: the
// record round-trip is a fixed point (see FuzzJSONRecordRoundTrip) and
// duplicated executions dedupe by seq at merge time.
//
// Every frame is a 4-byte big-endian payload length and the payload.
// The first frame on a connection is the worker's JSON hello. After it,
// a request payload is a binary request header followed by one record
// line per test; a response payload is a binary response header
// followed by one record line per result:
//
//	request:  ID u64 | N u32 | MAFs i32 | flags u8 | N record lines
//	response: ID u64 | N u32 | len(err) u32 | err  | N record lines
//
// A request record line holds only a test's inputs (seq, func, state,
// dataset, descs, validity); the flag byte holds the four xm.FaultSet
// bits, Stress and Coverage.
package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/dict"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// ProtoVersion is the wire protocol version; both ends refuse a
// mismatch rather than misparse each other.
const ProtoVersion = 2

// maxFrame bounds one length-prefixed frame — far above any real lease
// but small enough that a corrupt length prefix cannot ask for the moon.
const maxFrame = 64 << 20

// frameOverhead is the per-frame framing cost (the 4-byte length
// prefix), counted alongside payload bytes in the wire-byte metrics.
const frameOverhead = 4

// Header sizes: the fixed part of each binary header.
const (
	reqHeaderLen  = 8 + 4 + 4 + 1
	respHeaderLen = 8 + 4 + 4
)

// Flag bits of the request header.
const (
	flagResetSystemModeCheck = 1 << iota
	flagTimerMinInterval
	flagTimerNegativeCheck
	flagMulticallRemoved
	flagStress
	flagCoverage

	knownFlags = 1<<iota - 1
)

// errNoID refuses a request frame too short to carry the ID a response
// must echo.
var errNoID = errors.New("remote: request frame too short to carry an ID")

// WriteFrame writes one length-prefixed frame in a single write: a
// 4-byte big-endian payload length followed by the payload.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := append(newFrame(nil), payload...)
	if err := sealFrame(frame); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	return readFrame(r, nil)
}

// newFrame starts a frame in buf: the length prefix is reserved and
// filled by sealFrame once the payload is appended.
func newFrame(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0)
}

// sealFrame writes the length prefix of a frame built on newFrame.
func sealFrame(frame []byte) error {
	n := len(frame) - frameOverhead
	if n > maxFrame {
		return fmt.Errorf("remote: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// readFrame reads one frame's payload into buf's capacity, growing it
// only when the payload does not fit.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// maxPooledFrame caps the buffers framePool keeps: a rare huge lease
// must not stay resident for the life of the process.
const maxPooledFrame = 1 << 20

// framePool recycles frame buffers on both ends of the wire: request
// and response frames are built and read into pooled buffers, so a
// steady stream of leases allocates none.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledFrame {
		framePool.Put(bp)
	}
}

// Hello is the first frame a worker sends on every connection: its
// protocol version and the target spec it executes on. The client
// refuses a version or target mismatch — mixing targets would splice
// two backends' logs into one campaign.
type Hello struct {
	Proto  int    `json:"proto"`
	Target string `json:"target"`
}

// wireSpec is the per-run execution parameters on the wire: the RunSpec
// knobs that shape a log. Header and Dict stay local (datasets ship
// resolved; the worker's spec header supplies signatures), and Inject is
// never set at this layer — SEU composites run worker-side, inside the
// worker's own target spec.
type wireSpec struct {
	Faults   xm.FaultSet
	MAFs     int
	Stress   bool
	Coverage bool
}

// reqHeader is the binary header of a request frame: an ID for response
// matching (connections pipeline; responses may interleave), the number
// of record lines that follow, and the spec to execute them under.
type reqHeader struct {
	ID   uint64
	N    int
	Spec wireSpec
}

// respHeader is the binary header of a response frame; N record lines
// (in request order) follow. Err is set only for refused requests —
// per-test failures travel inside the records as RunErr, like every
// other harness error.
type respHeader struct {
	ID  uint64
	N   int
	Err string
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

// flags packs the boolean knobs into the header's flag byte.
func (ws wireSpec) flags() byte {
	var f byte
	for _, b := range [...]struct {
		on  bool
		bit byte
	}{
		{ws.Faults.ResetSystemModeCheck, flagResetSystemModeCheck},
		{ws.Faults.TimerMinInterval, flagTimerMinInterval},
		{ws.Faults.TimerNegativeCheck, flagTimerNegativeCheck},
		{ws.Faults.MulticallRemoved, flagMulticallRemoved},
		{ws.Stress, flagStress},
		{ws.Coverage, flagCoverage},
	} {
		if b.on {
			f |= b.bit
		}
	}
	return f
}

// appendLease appends a request frame's payload — the header with ID 0
// and one input record line per test — to a frame started by newFrame.
// The dataset's Index is its global campaign position (plans and slices
// both key it that way), so it travels as the record's seq and the
// worker's records come back already carrying it. setFrameID stamps
// each attempt's ID.
func appendLease(frame []byte, batch []testgen.Dataset, ws wireSpec, codec campaign.Codec) ([]byte, error) {
	if ws.MAFs < math.MinInt32 || ws.MAFs > math.MaxInt32 {
		return frame, fmt.Errorf("remote: MAFs %d does not fit the request header", ws.MAFs)
	}
	frame = binary.BigEndian.AppendUint64(frame, 0)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(batch)))
	frame = binary.BigEndian.AppendUint32(frame, uint32(int32(ws.MAFs)))
	frame = append(frame, ws.flags())
	var rec campaign.JSONRecord
	for _, ds := range batch {
		rec.Func, rec.Seq, rec.State = ds.Func.Name, ds.Index, ds.State
		rec.Dataset, rec.Descs, rec.Validity = rec.Dataset[:0], rec.Descs[:0], rec.Validity[:0]
		for _, v := range ds.Values {
			rec.Dataset = append(rec.Dataset, v.Raw)
			rec.Descs = append(rec.Descs, v.Desc)
			rec.Validity = append(rec.Validity, v.Validity.String())
		}
		var err error
		if frame, err = codec.AppendEncode(frame, &rec); err != nil {
			return frame, err
		}
		frame = append(frame, '\n')
	}
	return frame, nil
}

// setFrameID stamps a request ID into a frame built by appendLease.
func setFrameID(frame []byte, id uint64) {
	binary.BigEndian.PutUint64(frame[frameOverhead:], id)
}

// parseRequest splits a request payload into its header and the record
// lines that follow. The returned header carries the request's ID
// whenever the payload holds one — also on refusal, so the refusal can
// answer the lease it refuses.
func parseRequest(p []byte) (reqHeader, []byte, error) {
	var h reqHeader
	if len(p) < 8 {
		return h, nil, errNoID
	}
	h.ID = binary.BigEndian.Uint64(p)
	if len(p) < reqHeaderLen {
		return h, nil, fmt.Errorf("remote: request header of %d bytes, want %d", len(p), reqHeaderLen)
	}
	n := binary.BigEndian.Uint32(p[8:])
	body := p[reqHeaderLen:]
	if uint64(n) > uint64(len(body)) {
		return h, nil, fmt.Errorf("remote: request declares %d records in %d bytes", n, len(body))
	}
	f := p[16]
	if f&^knownFlags != 0 {
		return h, nil, fmt.Errorf("remote: request sets unknown flag bits %#02x", f&^knownFlags)
	}
	h.N = int(n)
	h.Spec = wireSpec{
		Faults: xm.FaultSet{
			ResetSystemModeCheck: f&flagResetSystemModeCheck != 0,
			TimerMinInterval:     f&flagTimerMinInterval != 0,
			TimerNegativeCheck:   f&flagTimerNegativeCheck != 0,
			MulticallRemoved:     f&flagMulticallRemoved != 0,
		},
		MAFs:     int(int32(binary.BigEndian.Uint32(p[12:]))),
		Stress:   f&flagStress != 0,
		Coverage: f&flagCoverage != 0,
	}
	return h, body, nil
}

// decodeLease rebuilds the n datasets of a request body, resolving each
// hypercall against h. The body must hold exactly n record lines.
func decodeLease(body []byte, n int, h *apispec.Header, codec campaign.Codec) ([]testgen.Dataset, error) {
	datasets := make([]testgen.Dataset, 0, n)
	var rec campaign.JSONRecord
	err := eachLine(body, n, func(line []byte) error {
		if err := codec.Decode(line, &rec); err != nil {
			return err
		}
		ds, err := rec.TestDataset(h)
		datasets = append(datasets, ds)
		return err
	})
	return datasets, err
}

// appendResponse appends a response frame's payload — the header, then
// one record line per result, logged at its test's campaign position —
// to a frame started by newFrame.
func appendResponse(frame []byte, id uint64, batch []testgen.Dataset, results []target.Result, codec campaign.Codec) ([]byte, error) {
	frame = appendRespHeader(frame, respHeader{ID: id, N: len(results)})
	for i, r := range results {
		rec := campaign.ToRecord(batch[i].Index, r)
		var err error
		if frame, err = codec.AppendEncode(frame, &rec); err != nil {
			return frame, err
		}
		frame = append(frame, '\n')
	}
	return frame, nil
}

// appendRespHeader appends a binary response header.
func appendRespHeader(dst []byte, h respHeader) []byte {
	dst = binary.BigEndian.AppendUint64(dst, h.ID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.N))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(h.Err)))
	return append(dst, h.Err...)
}

// parseResponse splits a response payload into its header and the
// record lines that follow.
func parseResponse(p []byte) (respHeader, []byte, error) {
	var h respHeader
	if len(p) < respHeaderLen {
		return h, nil, fmt.Errorf("remote: response header of %d bytes, want %d", len(p), respHeaderLen)
	}
	h.ID = binary.BigEndian.Uint64(p)
	n := binary.BigEndian.Uint32(p[8:])
	errLen := binary.BigEndian.Uint32(p[12:])
	rest := p[respHeaderLen:]
	if uint64(errLen) > uint64(len(rest)) {
		return h, nil, fmt.Errorf("remote: response error of %d bytes in %d", errLen, len(rest))
	}
	h.Err = string(rest[:errLen])
	body := rest[errLen:]
	if uint64(n) > uint64(len(body)) {
		return h, nil, fmt.Errorf("remote: response declares %d records in %d bytes", n, len(body))
	}
	h.N = int(n)
	return h, body, nil
}

// decodeResults rebuilds the results of a response body, resolving each
// hypercall against h. The body must hold exactly hdr.N record lines.
func decodeResults(hdr respHeader, body []byte, h *apispec.Header, codec campaign.Codec) ([]target.Result, error) {
	if hdr.Err != "" {
		return nil, fmt.Errorf("remote: worker refused lease: %s", hdr.Err)
	}
	results := make([]target.Result, 0, hdr.N)
	var rec campaign.JSONRecord
	err := eachLine(body, hdr.N, func(line []byte) error {
		if err := codec.Decode(line, &rec); err != nil {
			return err
		}
		r, err := rec.Result(h)
		results = append(results, r)
		return err
	})
	return results, err
}

// eachLine calls fn on each of the n newline-terminated lines of body,
// refusing a body that holds fewer or more.
func eachLine(body []byte, n int, fn func(line []byte) error) error {
	for i := 0; i < n; i++ {
		j := bytes.IndexByte(body, '\n')
		if j < 0 {
			return fmt.Errorf("remote: body ends at record %d of %d", i, n)
		}
		if err := fn(body[:j+1]); err != nil {
			return fmt.Errorf("remote: record %d: %w", i, err)
		}
		body = body[j+1:]
	}
	if len(body) > 0 {
		return fmt.Errorf("remote: %d bytes after the last of %d records", len(body), n)
	}
	return nil
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
