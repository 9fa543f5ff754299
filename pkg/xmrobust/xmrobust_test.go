package xmrobust_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"xmrobust/internal/campaign"
	"xmrobust/pkg/xmrobust"
)

// TestGoldenFacadeMatchesCampaignRun is the refactor's golden test: a
// seeded sim campaign through the public facade (streamed, sharded,
// checkpointed) must produce a merged JSON Lines log byte-identical to
// the log of the pre-refactor campaign.Run path (eager, in-memory,
// WriteJSON).
func TestGoldenFacadeMatchesCampaignRun(t *testing.T) {
	const plan, seed = "rand:60", int64(42)

	results, err := campaign.Run(campaign.Options{Plan: plan, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := campaign.WriteJSON(&want, results); err != nil {
		t.Fatal(err)
	}

	rep, err := xmrobust.Run(
		xmrobust.WithPlan(plan),
		xmrobust.WithSeed(seed),
		xmrobust.WithTarget("sim"),
		xmrobust.WithCheckpoint(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	n, err := rep.WriteLog(&got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(results) {
		t.Fatalf("facade log has %d records, campaign.Run produced %d", n, len(results))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("facade merged log differs from the campaign.Run log")
	}
	// The default backend serialises as the target field's absence —
	// the contract that keeps sim logs byte-identical to logs written
	// before the target layer existed.
	if bytes.Contains(got.Bytes(), []byte(`"target"`)) {
		t.Fatal("sim records carry an explicit target field, breaking pre-target-layer log compatibility")
	}
}

// TestGoldenMergedLogHashes pins the merged campaign logs of four
// fixed-seed checkpointed campaigns — what `xmfuzz -stream DIR -o FILE`
// writes — to their sha256. The hashes were recorded from the
// build-a-testbed-per-test execution path; they hold the simulator, the
// machine pool and kernel recycling to those exact bytes. A changed hash
// means a campaign's results changed: update it only for an intended
// change of behaviour.
func TestGoldenMergedLogHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full campaigns")
	}
	for _, tc := range []struct {
		name string
		opts []xmrobust.Option
		sha  string
	}{
		{"rand:300 -seed 5",
			[]xmrobust.Option{xmrobust.WithPlan("rand:300"), xmrobust.WithSeed(5)},
			"1885ab3be5523bd5fb2efc9cf9c52bd666bb1b0e855a78c25b410367b1400dbe"},
		{"feedback:200 -seed 3",
			[]xmrobust.Option{xmrobust.WithPlan("feedback:200"), xmrobust.WithSeed(3)},
			"d6c3d060e9b4add243bca15ab751a0a400a1b206fe0eab5e442344b428383416"},
		{"rand:200 -seed 2 -target inject:sim",
			[]xmrobust.Option{xmrobust.WithPlan("rand:200"), xmrobust.WithSeed(2), xmrobust.WithTarget("inject:sim")},
			"7f842e226d40819b2afc6ac45749aaba9bc73eacafb5c73f04974592eb4ef6d1"},
		{"rand:150 -seed 4 -stress -mafs 3",
			[]xmrobust.Option{xmrobust.WithPlan("rand:150"), xmrobust.WithSeed(4), xmrobust.WithStress(), xmrobust.WithMAFs(3)},
			"b72dcaff90a5106b55fa698aaf530a4fcea0a30e1a01c6caab0ae6c8d6ad3307"},
	} {
		rep, err := xmrobust.Run(append(tc.opts, xmrobust.WithCheckpoint(t.TempDir()))...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		if _, err := rep.WriteLog(h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
			t.Errorf("%s: merged log sha256 %s, want %s", tc.name, got, tc.sha)
		}
	}
}

// TestResumeRefusesTargetMismatch pins the checkpoint acceptance
// criterion: a campaign checkpointed on one backend refuses to resume on
// another, naming both.
func TestResumeRefusesTargetMismatch(t *testing.T) {
	dir := t.TempDir()
	base := []xmrobust.Option{
		xmrobust.WithPlan("rand:6"),
		xmrobust.WithSeed(1),
		xmrobust.WithMAFs(1),
		xmrobust.WithCheckpoint(dir),
	}
	if _, err := xmrobust.Run(append(base, xmrobust.WithTarget("sim"))...); err != nil {
		t.Fatal(err)
	}
	_, err := xmrobust.Run(append(base,
		xmrobust.WithTarget("phantom"), xmrobust.WithResume())...)
	if err == nil {
		t.Fatal("resume on a different target was accepted")
	}
	if !strings.Contains(err.Error(), `"sim"`) || !strings.Contains(err.Error(), `"phantom"`) {
		t.Fatalf("mismatch error does not name both targets: %v", err)
	}
	// Resuming on the recorded target still works.
	rep, err := xmrobust.Run(append(base,
		xmrobust.WithTarget("sim"), xmrobust.WithResume())...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped() != 6 || rep.Executed() != 0 {
		t.Fatalf("resume skipped %d / executed %d, want 6 / 0", rep.Skipped(), rep.Executed())
	}
}

func TestInventoriesListPlansAndTargets(t *testing.T) {
	plans := map[string]bool{}
	for _, p := range xmrobust.Plans() {
		plans[p.Name] = true
		if p.Desc == "" {
			t.Errorf("plan %q has no description", p.Name)
		}
	}
	for _, want := range []string{"exhaustive", "pairwise", "rand", "boundary", "feedback", "phantom"} {
		if !plans[want] {
			t.Errorf("plan inventory lacks %q", want)
		}
	}
	targets := map[string]bool{}
	for _, tg := range xmrobust.Targets() {
		targets[tg.Name] = true
	}
	for _, want := range []string{"sim", "phantom", "diff"} {
		if !targets[want] {
			t.Errorf("target inventory lacks %q", want)
		}
	}
}

func TestDiffCampaignReportsDivergences(t *testing.T) {
	rep, err := xmrobust.Run(
		xmrobust.WithPlan("rand:30"),
		xmrobust.WithSeed(7),
		xmrobust.WithMAFs(1),
		xmrobust.WithTarget("diff:sim,phantom"),
	)
	if err != nil {
		t.Fatal(err)
	}
	divs := rep.Divergences()
	if len(divs) == 0 {
		t.Fatal("diff campaign over the legacy kernel found no divergences")
	}
	for i := 1; i < len(divs); i++ {
		if divs[i].Seq <= divs[i-1].Seq {
			t.Fatalf("divergences out of campaign order: %d after %d", divs[i].Seq, divs[i-1].Seq)
		}
	}
	if !strings.Contains(rep.Summary(), "DIVERGENCES") {
		t.Fatal("summary lacks the divergence section")
	}
	// Determinism: the same seeded diff campaign reproduces the same
	// divergence set (the property make diff-smoke pins in CI).
	rep2, err := xmrobust.Run(
		xmrobust.WithPlan("rand:30"),
		xmrobust.WithSeed(7),
		xmrobust.WithMAFs(1),
		xmrobust.WithTarget("diff:sim,phantom"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary() != rep2.Summary() {
		t.Fatal("seeded diff campaign is not deterministic")
	}
}

func TestPhantomPlanOnPhantomTarget(t *testing.T) {
	// The §V suite runs on the model too: 50 predictions, no simulator.
	rep, err := xmrobust.Run(
		xmrobust.WithPlan("phantom"),
		xmrobust.WithTarget("phantom"),
		xmrobust.WithMAFs(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 50 {
		t.Fatalf("phantom plan = %d tests, want 50", rep.Total())
	}
	if n := rep.HarnessErrors(); n != 0 {
		t.Fatalf("%d harness errors", n)
	}
}

func TestRunOneAndClassify(t *testing.T) {
	header := xmrobust.DefaultHeader()
	f, ok := header.Function("XM_set_timer")
	if !ok {
		t.Fatal("no XM_set_timer")
	}
	m, err := xmrobust.BuildMatrix(f, xmrobust.BuiltinDict())
	if err != nil {
		t.Fatal(err)
	}
	res, err := xmrobust.RunOne(m.Datasets()[0], xmrobust.WithMAFs(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != "" {
		t.Fatal(res.RunErr)
	}
	issues, err := xmrobust.Classify([]xmrobust.Result{res})
	if err != nil {
		t.Fatal(err)
	}
	_ = issues // one benign test may legitimately raise nothing
}

func TestWithFunctionRestrictsCampaign(t *testing.T) {
	rep, err := xmrobust.Run(
		xmrobust.WithFunction("XM_get_time"),
		xmrobust.WithMAFs(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results() {
		if res.Dataset.Func.Name != "XM_get_time" {
			t.Fatalf("campaign leaked %s", res.Dataset.Func.Name)
		}
	}
	if _, err := xmrobust.Run(xmrobust.WithFunction("XM_nope")); err == nil {
		t.Fatal("unknown hypercall accepted")
	}
}

func TestNewSystemBootsAndFlies(t *testing.T) {
	k, err := xmrobust.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunMajorFrames(2); err != nil {
		t.Fatal(err)
	}
	if st := k.Status(); st.State != xmrobust.KStateRunning {
		t.Fatalf("kernel %v after nominal flight", st.State)
	}
	rep, err := xmrobust.TestbedStatus(k)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PartitionsUp == 0 {
		t.Fatal("FDIR saw no partitions up")
	}
}

// TestWithInjectionValidatesRate: the facade rejects rates outside
// (0, 1] up front — including NaN, which slips through naive comparison
// guards — instead of silently running the schedule default.
func TestWithInjectionValidatesRate(t *testing.T) {
	for _, rate := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := xmrobust.Run(
			xmrobust.WithTarget("inject:sim"),
			xmrobust.WithInjection(rate),
		); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	// A schedule aimed at a target that never injects is a user mistake
	// (zero faults would be injected); it is rejected by name.
	for _, tgt := range []string{"", "sim", "phantom", "diff:sim,phantom"} {
		_, err := xmrobust.Run(xmrobust.WithTarget(tgt), xmrobust.WithInjection(1))
		if err == nil || !strings.Contains(err.Error(), "inject:*") {
			t.Errorf("target %q with WithInjection: %v", tgt, err)
		}
	}
	// A diff-wrapped inject leg injects; the pairing is legitimate.
	if _, err := xmrobust.Run(
		xmrobust.WithTarget("diff:phantom,inject:sim"),
		xmrobust.WithPlan("rand:3"), xmrobust.WithMAFs(1),
		xmrobust.WithInjection(1, "ram"),
	); err != nil {
		t.Errorf("diff-wrapped inject rejected: %v", err)
	}
	rep, err := xmrobust.Run(
		xmrobust.WithTarget("inject:sim"),
		xmrobust.WithPlan("rand:5"),
		xmrobust.WithSeed(1),
		xmrobust.WithMAFs(1),
		xmrobust.WithInjection(1, "ram"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Summary(), "SEU FAULT INJECTION") {
		t.Fatal("injected facade campaign reports no SEU section")
	}
}
