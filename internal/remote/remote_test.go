package remote

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/dict"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// testPlan builds a small deterministic plan over a couple of quick
// hypercalls.
func testPlan(t testing.TB, spec string, seed int64, funcs ...string) testgen.Plan {
	t.Helper()
	keep := map[string]bool{}
	for _, f := range funcs {
		keep[f] = true
	}
	h := apispec.Default()
	for i := range h.Functions {
		if !keep[h.Functions[i].Name] {
			h.Functions[i].Tested = "NO"
		}
	}
	p, err := testgen.NewPlan(spec, h, dict.Builtin(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// startWorker serves tgt on a loopback listener and returns its address
// and server (for death simulation).
func startWorker(t *testing.T, tgt string, workers, exitAfter int) (string, *Server, net.Listener) {
	t.Helper()
	backend, err := target.New(tgt, target.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Target: backend, Workers: workers, ExitAfter: exitAfter}
	if exitAfter > 0 {
		srv.OnExit = func() {
			// The in-process stand-in for os.Exit: drop the listener and
			// every live connection, leaving in-flight leases unanswered.
			ln.Close()
			srv.CloseConnections()
		}
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); srv.CloseConnections() })
	return ln.Addr().String(), srv, ln
}

// mergedLog runs the plan through the streaming engine against the given
// target spec and returns the merged campaign log bytes.
func mergedLog(t *testing.T, plan testgen.Plan, tgtSpec string, workers, batch int) []byte {
	t.Helper()
	log, err := streamMerged(t.TempDir(), plan, tgtSpec, workers, batch)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// streamMerged is mergedLog for goroutines other than the test's: it
// reports failures as errors.
func streamMerged(dir string, plan testgen.Plan, tgtSpec string, workers, batch int) ([]byte, error) {
	eo := campaign.EngineOptions{
		Options:   campaign.Options{Workers: workers, Target: tgtSpec},
		ShardDir:  dir,
		BatchSize: batch,
	}
	stats, err := campaign.StreamPlan(plan, eo, nil)
	if err != nil {
		return nil, fmt.Errorf("stream on %s: %w", tgtSpec, err)
	}
	if stats.Executed != plan.Len() {
		return nil, fmt.Errorf("stream on %s executed %d of %d", tgtSpec, stats.Executed, plan.Len())
	}
	var buf bytes.Buffer
	n, err := campaign.MergeShards(dir, &buf)
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	if n != plan.Len() {
		return nil, fmt.Errorf("merge on %s: %d records, want %d", tgtSpec, n, plan.Len())
	}
	return buf.Bytes(), nil
}

// TestFrameRoundTrip pins the length-prefixed framing.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 70000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(want))
		}
	}
	// A corrupt length prefix must be refused, not allocated.
	if _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// TestRemoteMergeByteIdentical: a campaign fanned across two loopback
// workers merges to exactly the bytes of the same campaign executed
// in-process — the tentpole invariant of the distributed path.
func TestRemoteMergeByteIdentical(t *testing.T) {
	plan := testPlan(t, "rand:40", 1, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 2, 0)

	addr1, _, _ := startWorker(t, "sim", 2, 0)
	addr2, _, _ := startWorker(t, "sim", 2, 0)
	remote := mergedLog(t, plan, "remote:"+addr1+","+addr2, 4, 3)

	if !bytes.Equal(local, remote) {
		t.Fatalf("remote merged log differs from local: %d vs %d bytes", len(remote), len(local))
	}
}

// TestRemoteWorkerDeathHandsBack: a worker dying mid-lease loses nothing
// — its unanswered leases re-execute on the surviving worker and the
// merged log still matches the single-process run byte for byte.
func TestRemoteWorkerDeathHandsBack(t *testing.T) {
	plan := testPlan(t, "rand:30", 7, "XM_set_timer", "XM_get_time")
	local := mergedLog(t, plan, "sim", 1, 0)

	dying, _, _ := startWorker(t, "sim", 1, 5)
	healthy, _, _ := startWorker(t, "sim", 2, 0)
	remote := mergedLog(t, plan, "remote:"+dying+","+healthy, 4, 2)

	if !bytes.Equal(local, remote) {
		t.Fatalf("merged log after worker death differs from local: %d vs %d bytes", len(remote), len(local))
	}
}

// TestRemoteRefusesMixedFleet: workers advertising different targets
// cannot form one fleet — their records would splice two backends' logs
// into one campaign.
func TestRemoteRefusesMixedFleet(t *testing.T) {
	addr1, _, _ := startWorker(t, "sim", 1, 0)
	addr2, _, _ := startWorker(t, "phantom", 1, 0)
	tgt, err := target.New("remote:"+addr1+","+addr2, target.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Provision(2); err == nil {
		t.Fatal("mixed-target fleet accepted")
	}
}

// TestRemoteRefusesEmptyFleet: a remote spec without addresses, and a
// fleet with no reachable worker, both fail loudly at construction or
// provision time.
func TestRemoteRefusesEmptyFleet(t *testing.T) {
	if _, err := target.New("remote:", target.Config{}); err == nil {
		t.Fatal("empty address list accepted")
	}
	tgt, err := target.New("remote:127.0.0.1:1", target.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Provision(1); err == nil {
		t.Fatal("unreachable fleet accepted")
	}
}

// TestWorkerTarget pins the hello discovery surface.
func TestWorkerTarget(t *testing.T) {
	addr, _, _ := startWorker(t, "phantom", 1, 0)
	got, err := WorkerTarget(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != "phantom" {
		t.Fatalf("hello target %q, want %q", got, "phantom")
	}
}
