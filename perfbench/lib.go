package main

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"xmrobust/internal/analysis"
	"xmrobust/internal/campaign"
	"xmrobust/internal/core"
	"xmrobust/internal/inject"
	"xmrobust/internal/report"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
	"xmrobust/pkg/xmrobust"
)

// lib_inject: one eager in-memory library campaign as
// `xmfuzz -target inject:sim` runs it — the exhaustive plan, every test
// executed clean and under a scheduled bit flip, then the issue
// classification and the rendered report (Table III, the issue list and
// the injection section).

// legacyIssues is the number of distinct robustness issues the paper's
// campaign finds on the legacy kernel. An injection campaign finds them
// all; an upset can add one of its own (a flip that makes the kernel
// abort is an issue too), so its count is the reference's, not this.
const legacyIssues = 9

const injectTarget = "inject:sim"

var libInject = workload{
	name:      "lib_inject",
	plan:      "exhaustive",
	clients:   oneClient,
	setup:     setupLib,
	reference: libReference,
}

type libFixture struct{ e *env }

func (f *libFixture) options(seed int64) campaign.Options {
	return campaign.Options{Plan: f.e.plan, Target: injectTarget, Seed: seed, Workers: f.e.workers}
}

func setupLib(e *env) (fixture, error) {
	f := &libFixture{e: e}
	// Validate and provision once before the first operation.
	_, opts, err := campaign.BuildPlan(f.options(0))
	if err != nil {
		return nil, err
	}
	probe, err := target.New(opts.Target, target.Config{Inject: inject.Params{Seed: 0}})
	if err != nil {
		return nil, err
	}
	if err := probe.Provision(e.workers); err != nil {
		return nil, err
	}
	return f, nil
}

// libReference renders the report of an uninterrupted library run.
func libReference(e *env, seed int64) (*reference, error) {
	rep, err := xmrobust.Run(xmrobust.WithPlan(e.plan), xmrobust.WithTarget(injectTarget),
		xmrobust.WithSeed(seed), xmrobust.WithWorkers(e.workers))
	if err != nil {
		return nil, err
	}
	if rep.HarnessErrors() > 0 {
		return nil, fmt.Errorf("reference run of seed %d has %d harness errors", seed, rep.HarnessErrors())
	}
	study := analysis.NewInjectionStudy()
	for _, r := range rep.Results() {
		study.Add(r)
	}
	ref, err := logRef(rep)
	if err != nil {
		return nil, err
	}
	ref.summarySHA = sha256.Sum256([]byte(rep.Summary()))
	ref.issues = len(rep.Issues())
	ref.tally = report.InjectionSection(study)
	if e.plan == "exhaustive" {
		if ref.legacy, err = legacyIssueIDs(e.workers); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

var legacy struct {
	once sync.Once
	ids  []string
	err  error
}

// legacyIssueIDs returns the issues of the paper's campaign on the legacy
// kernel (exhaustive plan, no injection), computed once per process.
func legacyIssueIDs(workers int) ([]string, error) {
	legacy.once.Do(func() {
		rep, err := xmrobust.Run(xmrobust.WithWorkers(workers))
		if err != nil {
			legacy.err = err
			return
		}
		for _, is := range rep.Issues() {
			legacy.ids = append(legacy.ids, is.ID())
		}
		if len(legacy.ids) != legacyIssues {
			legacy.err = fmt.Errorf("the legacy kernel campaign finds %d issues, want %d", len(legacy.ids), legacyIssues)
		}
	})
	return legacy.ids, legacy.err
}

func (f *libFixture) close() error { return nil }

func (f *libFixture) op(k, _ int, seed int64, ref *reference) opResult {
	res := opResult{seed: seed}
	sc := f.e.scope(k)
	start := time.Now()
	var (
		text, tally string
		issues      []analysis.Issue
		harness     int
		err         error
	)
	sc.phase(spanOp, 0, func() {
		var (
			plan testgen.Plan
			opts campaign.Options
		)
		sc.phase(spanBuildPlan, 0, func() { plan, opts, err = campaign.BuildPlan(f.options(seed)) })
		if err != nil {
			return
		}
		var tgt target.Target
		tgt, err = target.New(opts.Target, target.Config{Inject: inject.Params{Rate: opts.Inject.Rate, Sites: opts.Inject.Sites, Seed: seed}})
		if err != nil {
			return
		}
		var src campaign.Source = plan
		if sc != nil {
			tgt = wrapTarget(tgt, func() *scope { return sc }, false)
			src = wrapSource(plan, sc)
		}
		results := make([]campaign.Result, plan.Len())
		var stats campaign.EngineStats
		sc.phase(spanStream, 1, func() {
			stats, err = campaign.StreamPlan(src, campaign.EngineOptions{Options: opts, TargetInstance: tgt},
				func(pos int, r campaign.Result) {
					if res.firstRecord == 0 {
						res.firstRecord = time.Since(start)
					}
					if r.RunErr != "" {
						harness++
					}
					results[pos] = r
				})
		})
		if err != nil {
			return
		}
		res.tests, res.pool, res.engine = stats.Executed, stats.Pool, engineSig(stats)

		// Log analysis, as core.RunCampaign runs it for the eager report.
		var (
			classified []analysis.Classified
			study      = analysis.NewInjectionStudy()
		)
		sc.phase(spanClassify, 0, func() {
			classified = analysis.ClassifyAll(results, analysis.NewOracle(opts.Faults))
			issues = analysis.Cluster(classified)
			for _, r := range results {
				study.Add(r)
			}
		})
		sc.phase(spanRender, 0, func() {
			rep := &core.CampaignReport{
				Options:    opts,
				Plan:       testgen.Measure(plan),
				Results:    results,
				Classified: classified,
				Issues:     issues,
			}
			rep.Datasets = make([]testgen.Dataset, len(results))
			for i, r := range results {
				rep.Datasets[i] = r.Dataset
			}
			if !study.Empty() {
				rep.Injection = study
			}
			text = report.Full(rep)
			tally = report.InjectionSection(study)
		})
	})
	res.latency = time.Since(start)
	switch {
	case err != nil:
		res.err = err
	case harness > 0:
		res.err = fmt.Errorf("%d harness-error records", harness)
	default:
		res.err = ref.checkReport(text, issues, tally)
	}
	return res
}

// checkReport compares a rendered lib_inject report against the
// reference.
func (r *reference) checkReport(text string, issues []analysis.Issue, tally string) error {
	found := map[string]bool{}
	for _, is := range issues {
		found[is.ID()] = true
	}
	for _, id := range r.legacy {
		if !found[id] {
			return fmt.Errorf("legacy-kernel issue %s not found", id)
		}
	}
	switch {
	case len(issues) != r.issues:
		return fmt.Errorf("found %d issues, want %d", len(issues), r.issues)
	case tally != r.tally:
		return fmt.Errorf("injection tally %q differs from the reference %q", tally, r.tally)
	case sha256.Sum256([]byte(text)) != r.summarySHA:
		return fmt.Errorf("rendered report differs from the reference")
	}
	return nil
}
