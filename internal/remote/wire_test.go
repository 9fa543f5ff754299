package remote

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// rawCodec returns the codec both ends of the wire speak.
func rawCodec(t testing.TB) campaign.Codec {
	t.Helper()
	codec, err := campaign.NewCodec("raw")
	if err != nil {
		t.Fatal(err)
	}
	return codec
}

// testLease returns the first n datasets of a small plan, each indexed
// by its campaign position as the engine leases them.
func testLease(t testing.TB, n int) []testgen.Dataset {
	t.Helper()
	plan := testPlan(t, "rand:40", 1, "XM_set_timer", "XM_get_time")
	lease := make([]testgen.Dataset, n)
	for i := range lease {
		lease[i] = plan.At(i)
		lease[i].Index = i
	}
	return lease
}

// leaseFrame builds a sealed request frame the way the client does.
func leaseFrame(t testing.TB, id uint64, lease []testgen.Dataset, ws wireSpec) []byte {
	t.Helper()
	frame, err := appendLease(newFrame(nil), lease, ws, rawCodec(t))
	if err != nil {
		t.Fatal(err)
	}
	setFrameID(frame, id)
	if err := sealFrame(frame); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestHeaderCarriesEveryKnob: every combination of the four fault
// flags, Stress and Coverage, with default and non-default MAFs, crosses
// the request header unchanged.
func TestHeaderCarriesEveryKnob(t *testing.T) {
	for bits := 0; bits < 1<<6; bits++ {
		for _, mafs := range []int{0, 2, 60, -1, math.MaxInt32, math.MinInt32} {
			ws := wireSpec{
				Faults: xm.FaultSet{
					ResetSystemModeCheck: bits&1 != 0,
					TimerMinInterval:     bits&2 != 0,
					TimerNegativeCheck:   bits&4 != 0,
					MulticallRemoved:     bits&8 != 0,
				},
				MAFs:     mafs,
				Stress:   bits&16 != 0,
				Coverage: bits&32 != 0,
			}
			frame := leaseFrame(t, uint64(bits)<<40|7, nil, ws)
			hdr, body, err := parseRequest(frame[frameOverhead:])
			if err != nil {
				t.Fatalf("%+v: %v", ws, err)
			}
			want := reqHeader{ID: uint64(bits)<<40 | 7, Spec: ws}
			if hdr != want || len(body) != 0 {
				t.Fatalf("header round trip = %+v (%d body bytes), want %+v", hdr, len(body), want)
			}
		}
	}
	if _, err := appendLease(newFrame(nil), nil, wireSpec{MAFs: math.MaxInt32 + 1}, rawCodec(t)); err == nil {
		t.Error("MAFs beyond the header's 32 bits accepted")
	}
}

// TestHeaderEncodesEveryField walks wireSpec (and the xm.FaultSet inside
// it) by reflection and sends a spec with one field set at a time: a
// field added to either type without a place in the request header
// comes back zero and fails here.
func TestHeaderEncodesEveryField(t *testing.T) {
	var walk func(typ reflect.Type, index []int)
	walk = func(typ reflect.Type, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx)
				continue
			}
			var ws wireSpec
			leaf := reflect.ValueOf(&ws).Elem().FieldByIndex(idx)
			switch leaf.Kind() {
			case reflect.Bool:
				leaf.SetBool(true)
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				leaf.SetInt(7)
			default:
				t.Fatalf("wireSpec field %s is a %s: give it a place in the request header and a case here", f.Name, leaf.Kind())
			}
			frame := leaseFrame(t, 1, nil, ws)
			hdr, _, err := parseRequest(frame[frameOverhead:])
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			if hdr.Spec != ws {
				t.Errorf("wireSpec field %s does not cross the request header: sent %+v, got %+v", f.Name, ws, hdr.Spec)
			}
		}
	}
	walk(reflect.TypeOf(wireSpec{}), nil)
}

// TestFrameRefusals: each decoder refuses anything but a whole header
// followed by exactly N record lines, and the worker's refusal keeps
// the request's ID whenever the frame carries one.
func TestFrameRefusals(t *testing.T) {
	codec, h := rawCodec(t), apispec.Default()
	good := leaseFrame(t, 42, testLease(t, 2), wireSpec{MAFs: 2})[frameOverhead:]
	withN := func(p []byte, n uint32) []byte {
		q := bytes.Clone(p)
		binary.BigEndian.PutUint32(q[8:], n)
		return q
	}
	withFlags := func(p []byte, f byte) []byte {
		q := bytes.Clone(p)
		q[16] = f
		return q
	}
	firstLine := bytes.IndexByte(good[reqHeaderLen:], '\n') + 1
	requests := map[string][]byte{
		"no ID":              good[:7],
		"short header":       good[:reqHeaderLen-1],
		"N beyond the frame": withN(good, math.MaxUint32),
		"unknown flag bits":  withFlags(good, 0x40),
		"fewer lines than N": good[:reqHeaderLen+firstLine],
		"more lines than N":  withN(good, 1),
		"unterminated line":  good[:len(good)-1],
		"unknown validity":   bytes.Replace(good, []byte(`"validity":["`), []byte(`"validity":["sideways","`), 1),
	}
	for name, p := range requests {
		hdr, body, err := parseRequest(p)
		if err == nil {
			_, err = decodeLease(body, hdr.N, h, codec)
		}
		if err == nil {
			t.Errorf("request %s accepted", name)
			continue
		}
		if wantID := len(p) >= 8; wantID && hdr.ID != 42 {
			t.Errorf("request %s: refusal carries ID %d, want 42", name, hdr.ID)
		}
	}
	if _, err := decodeLease(good[reqHeaderLen:], 2, h, codec); err != nil {
		t.Fatalf("the well-formed lease itself is refused: %v", err)
	}

	resp := appendRespHeader(nil, respHeader{ID: 9, N: 1})
	resp = append(resp, "{}\n"...)
	bigErr := appendRespHeader(nil, respHeader{ID: 9, Err: "x"})
	binary.BigEndian.PutUint32(bigErr[12:], 2)
	responses := map[string][]byte{
		"short header":       resp[:respHeaderLen-1],
		"N beyond the frame": withN(resp, math.MaxUint32),
		"err beyond frame":   bigErr,
		"fewer lines than N": withN(resp, 2),
		"more lines than N":  append(bytes.Clone(resp), "{}\n"...),
	}
	for name, p := range responses {
		hdr, body, err := parseResponse(p)
		if err == nil {
			_, err = decodeResults(hdr, body, h, codec)
		}
		if err == nil {
			t.Errorf("response %s accepted", name)
		}
	}
	// A declared N is checked against the frame before anything is
	// sized from it.
	huge := withN(good, math.MaxUint32)
	if n := allocBytes(func() { parseRequest(huge) }); n > 1024 {
		t.Errorf("refusing an oversized N allocates %d bytes", n)
	}
}

// allocBytes returns the bytes fn allocates per call, averaged over 10.
func allocBytes(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 10
}

// TestRefusedLeaseFailsFast: a lease the worker refuses comes back to
// the client at once as RunErr records for every test of the lease —
// the refusal names the lease's ID, so no round trip waits forever.
func TestRefusedLeaseFailsFast(t *testing.T) {
	addr, _, _ := startWorker(t, "sim", 1, 0)
	c, err := newClient(addr, target.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Provision(1); err != nil {
		t.Fatal(err)
	}
	lease := testLease(t, 3)
	frame, err := appendLease(newFrame(nil), lease, wireSpec{MAFs: 2}, c.codec)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := bytes.LastIndexByte(frame[:len(frame)-1], '\n') + 1
	cases := map[string][]byte{
		"unknown validity":    bytes.Replace(frame, []byte(`"validity":["`), []byte(`"validity":["sideways","`), 1),
		"body shorter than N": frame[:lastLine],
	}
	for name, frame := range cases {
		frame = bytes.Clone(frame)
		if err := sealFrame(frame); err != nil {
			t.Fatal(err)
		}
		done := make(chan []target.Result, 1)
		go func() { done <- c.execFrame(frame, lease) }()
		select {
		case results := <-done:
			if len(results) != len(lease) {
				t.Fatalf("%s: %d results for a lease of %d", name, len(results), len(lease))
			}
			for i, r := range results {
				if !strings.Contains(r.RunErr, "worker refused lease") || r.Aborted {
					t.Errorf("%s: result %d = RunErr %q (aborted %v), want the worker's refusal", name, i, r.RunErr, r.Aborted)
				}
				if r.Dataset.Index != lease[i].Index {
					t.Errorf("%s: result %d is test %d, want %d", name, i, r.Dataset.Index, lease[i].Index)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: refused lease still waiting after 10s", name)
		}
	}
}

// TestSharedServerConcurrentClients: two campaigns, each its own client
// on its own connection with pipelined leases, share one worker whose
// two executors per connection contend for two execution slots. Both
// merged logs match the in-process run byte for byte.
func TestSharedServerConcurrentClients(t *testing.T) {
	plan := testPlan(t, "rand:40", 5, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 1, 0)
	addr, _, _ := startWorker(t, "sim", 2, 0)

	var wg sync.WaitGroup
	logs := make([][]byte, 2)
	errs := make([]error, 2)
	for i := range logs {
		dir := t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[i], errs[i] = streamMerged(dir, plan, "remote:"+addr, 4, 2)
		}()
	}
	wg.Wait()
	for i := range logs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(local, logs[i]) {
			t.Errorf("client %d: merged log differs from the in-process run: %d vs %d bytes", i, len(logs[i]), len(local))
		}
	}
}

// FuzzFrame drives the worker's request-frame decoder and the client's
// response-frame decoder with arbitrary payloads. Neither may panic or
// size anything beyond the frame from a declared count; whatever one
// accepts must be a whole header followed by exactly N record lines,
// and must survive re-encoding: the decoded lease (or results) encodes
// to a frame that decodes to the same lease (or the same frame bytes).
func FuzzFrame(f *testing.F) {
	codec, h := rawCodec(f), apispec.Default()
	lease := testLease(f, 3)
	f.Add(leaseFrame(f, 1, lease, wireSpec{MAFs: 2, Coverage: true})[frameOverhead:])
	f.Add(leaseFrame(f, 2, lease[:1], wireSpec{Faults: xm.PatchedFaults(), MAFs: 60, Stress: true})[frameOverhead:])
	results := make([]target.Result, len(lease))
	for i, ds := range lease {
		results[i] = target.Result{Dataset: ds, Target: target.SimName, KernelState: xm.KStateRunning, Returns: []xm.RetCode{0}}
	}
	resp, err := appendResponse(nil, 3, lease, results, codec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resp)
	f.Add(appendRespHeader(nil, respHeader{ID: 4, Err: "remote: refused"}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 5, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 2, 0x80})

	f.Fuzz(func(t *testing.T, p []byte) {
		if hdr, body, err := parseRequest(p); err == nil {
			datasets, err := decodeLease(body, hdr.N, h, codec)
			if cap(datasets) > len(p) {
				t.Fatalf("%d-byte frame sized a lease of %d", len(p), cap(datasets))
			}
			if err == nil {
				if len(datasets) != hdr.N || bytes.Count(body, []byte{'\n'}) != hdr.N {
					t.Fatalf("accepted %d datasets from %d lines, header says %d", len(datasets), bytes.Count(body, []byte{'\n'}), hdr.N)
				}
				frame, err := appendLease(newFrame(nil), datasets, hdr.Spec, codec)
				if err != nil {
					t.Fatal(err)
				}
				setFrameID(frame, hdr.ID)
				hdr2, body2, err := parseRequest(frame[frameOverhead:])
				if err != nil {
					t.Fatalf("re-encoded request refused: %v", err)
				}
				again, err := decodeLease(body2, hdr2.N, h, codec)
				if err != nil || hdr2 != hdr || !reflect.DeepEqual(again, datasets) {
					t.Fatalf("request does not round-trip: %+v %v", hdr2, err)
				}
			}
		}
		if hdr, body, err := parseResponse(p); err == nil {
			results, err := decodeResults(hdr, body, h, codec)
			if cap(results) > len(p) {
				t.Fatalf("%d-byte frame sized %d results", len(p), cap(results))
			}
			if err == nil {
				if len(results) != hdr.N || bytes.Count(body, []byte{'\n'}) != hdr.N {
					t.Fatalf("accepted %d results from %d lines, header says %d", len(results), bytes.Count(body, []byte{'\n'}), hdr.N)
				}
				enc := encodeResults(t, hdr.ID, results)
				hdr2, body2, err := parseResponse(enc)
				if err != nil {
					t.Fatalf("re-encoded response refused: %v", err)
				}
				again, err := decodeResults(hdr2, body2, h, codec)
				if err != nil {
					t.Fatalf("re-encoded response undecodable: %v", err)
				}
				if enc2 := encodeResults(t, hdr.ID, again); !bytes.Equal(enc, enc2) {
					t.Fatalf("response does not round-trip:\n%q\n%q", enc, enc2)
				}
			}
		}
	})
}

// encodeResults encodes decoded results as the worker would answer
// them, each at the position its record carried.
func encodeResults(t *testing.T, id uint64, results []target.Result) []byte {
	t.Helper()
	batch := make([]testgen.Dataset, len(results))
	for i, r := range results {
		batch[i] = r.Dataset
	}
	enc, err := appendResponse(nil, id, batch, results, rawCodec(t))
	if err != nil {
		t.Fatal(err)
	}
	return enc
}
