package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"xmrobust/internal/campaign"
	"xmrobust/internal/inject"
	"xmrobust/internal/remote"
	"xmrobust/internal/sparc"
	"xmrobust/internal/store"
	"xmrobust/internal/target"
	"xmrobust/pkg/xmrobust"
)

// cli_resume and fleet_loopback: one checkpointed streaming campaign as
// `xmfuzz -stream DIR` runs it — leg 1 stops at half the plan (Limit),
// leg 2 resumes from the checkpoint, then the shards merge into a
// hashing writer. Each leg builds its own plan and target, as two xmfuzz
// processes would. fleet_loopback differs only in the target: remote:
// over nproc in-process workers on loopback TCP.

var cliResume = workload{
	name:      "cli_resume",
	plan:      "rand:2000",
	clients:   oneClient,
	setup:     func(e *env) (fixture, error) { return setupLocal(e, false) },
	reference: logReference,
}

// fleetLoopback runs half cli_resume's plan: a remote campaign takes four
// times as long per test, and at rand:2000 a run window held too few
// campaigns for a steady p90. Per-test metrics compare across the two.
var fleetLoopback = workload{
	name:      "fleet_loopback",
	plan:      "rand:1000",
	clients:   oneClient,
	setup:     func(e *env) (fixture, error) { return setupLocal(e, true) },
	reference: logReference,
}

// logReference computes the merged log of an uninterrupted in-memory
// library run of the workload's plan at the campaign seed.
func logReference(e *env, seed int64) (*reference, error) {
	rep, err := xmrobust.Run(xmrobust.WithPlan(e.plan), xmrobust.WithSeed(seed), xmrobust.WithWorkers(e.workers))
	if err != nil {
		return nil, err
	}
	if rep.HarnessErrors() > 0 {
		return nil, fmt.Errorf("reference run of seed %d has %d harness errors", seed, rep.HarnessErrors())
	}
	return logRef(rep)
}

// logRef captures a library run's merged log as a reference.
func logRef(rep *xmrobust.Report) (*reference, error) {
	var buf bytes.Buffer
	n, err := rep.WriteLog(&buf)
	if err != nil {
		return nil, err
	}
	return &reference{logSHA: sha256.Sum256(buf.Bytes()), records: n, log: buf.Bytes()}, nil
}

type localFixture struct {
	e *env

	// fleet_loopback only.
	servers []*fleetServer
	target  string // remote:<addr>,<addr>
	cur     atomic.Pointer[scope]
	wire    atomic.Int64 // bytes over the workers' connections (traced)
}

// fleetServer is one in-process remote worker.
type fleetServer struct {
	srv  *remote.Server
	sim  *target.Sim
	done chan struct{}
}

func setupLocal(e *env, fleet bool) (fixture, error) {
	f := &localFixture{e: e, target: target.SimName}
	if fleet {
		var addrs []string
		for i := 0; i < e.workers; i++ {
			fs, addr, err := f.startServer()
			if err != nil {
				f.close()
				return nil, err
			}
			f.servers = append(f.servers, fs)
			addrs = append(addrs, addr)
		}
		f.target = remote.Name + ":" + strings.Join(addrs, ",")
	}
	// Validate the configuration end to end before the first operation:
	// the plan and target resolve and the target provisions (for the
	// fleet: every worker answers its hello).
	_, opts, err := campaign.BuildPlan(f.options(0))
	if err != nil {
		f.close()
		return nil, err
	}
	probe, err := target.New(opts.Target, target.Config{})
	if err == nil {
		err = probe.Provision(e.workers)
	}
	f.dropConnections()
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// startServer starts one worker with its own sim, one execution at a
// time, as `xmworker -workers 1` runs.
func (f *localFixture) startServer() (*fleetServer, string, error) {
	sim := target.NewSim(target.Config{})
	if err := sim.Provision(1); err != nil {
		return nil, "", err
	}
	var tgt target.Target = sim
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	if f.e.tr != nil {
		tgt = wrapTarget(sim, func() *scope { return f.cur.Load() }, true)
		ln = countingListener{ln, &f.wire}
	}
	fs := &fleetServer{srv: &remote.Server{Target: tgt, Workers: 1}, sim: sim, done: make(chan struct{})}
	go func() {
		defer close(fs.done)
		fs.srv.Serve(ln)
	}()
	return fs, ln.Addr().String(), nil
}

func (f *localFixture) options(seed int64) campaign.Options {
	return campaign.Options{Plan: f.e.plan, Target: f.target, Seed: seed, Workers: f.e.workers}
}

// dropConnections closes the workers' connections once an operation's
// client targets are done with them — what the exit of an xmfuzz
// process does to its sockets.
func (f *localFixture) dropConnections() {
	for _, fs := range f.servers {
		fs.srv.CloseConnections()
	}
}

func (f *localFixture) serverPool() sparc.PoolStats {
	var ps sparc.PoolStats
	for _, fs := range f.servers {
		s := fs.sim.PoolStats()
		ps.Allocated += s.Allocated
		ps.Reused += s.Reused
		ps.Discarded += s.Discarded
	}
	return ps
}

func (f *localFixture) close() error {
	for _, fs := range f.servers {
		fs.srv.Shutdown()
		<-fs.done
	}
	f.servers = nil
	return nil
}

func (f *localFixture) op(k, _ int, seed int64, ref *reference) opResult {
	dir := filepath.Join(f.e.work, fmt.Sprintf("c%06d", k))
	defer os.RemoveAll(dir)
	res := opResult{seed: seed}
	sc := f.e.scope(k)
	var st store.Store = store.Local()
	if sc != nil {
		st = wrapStore(st, func(string) *scope { return sc })
		f.cur.Store(sc)
		defer f.cur.Store(nil)
	}
	pool0, wire0 := f.serverPool(), f.wire.Load()

	start := time.Now()
	harness := 0
	sink := func(_ int, r campaign.Result) {
		if res.firstRecord == 0 {
			res.firstRecord = time.Since(start)
		}
		if r.RunErr != "" {
			harness++
		}
	}
	var (
		sigs []string
		sum  [32]byte
		n    int
		err  error
	)
	sc.phase(spanOp, 0, func() {
		var stats campaign.EngineStats
		for leg := 1; leg <= 2 && err == nil; leg++ {
			stats, err = f.leg(sc, st, dir, seed, leg, sink)
			res.tests += stats.Executed
			res.pool.Allocated += stats.Pool.Allocated
			res.pool.Reused += stats.Pool.Reused
			res.pool.Discarded += stats.Pool.Discarded
			sigs = append(sigs, engineSig(stats))
		}
		if err != nil {
			return
		}
		h := sha256.New()
		sc.phase(spanMerge, 0, func() { n, err = campaign.MergeShardsIn(st, dir, h) })
		h.Sum(sum[:0])
	})
	res.latency = time.Since(start)
	if len(f.servers) > 0 {
		f.dropConnections()
		pool1 := f.serverPool()
		res.pool = sparc.PoolStats{
			Allocated: pool1.Allocated - pool0.Allocated,
			Reused:    pool1.Reused - pool0.Reused,
			Discarded: pool1.Discarded - pool0.Discarded,
		}
		res.wireBytes = f.wire.Load() - wire0
	}
	res.engine = strings.Join(sigs, " ")
	switch {
	case err != nil:
		res.err = err
	case harness > 0:
		res.err = fmt.Errorf("%d harness-error records", harness)
	case res.tests != n:
		res.err = fmt.Errorf("the legs executed %d tests but the merged log holds %d", res.tests, n)
	default:
		res.err = ref.checkLog(sum, n)
	}
	return res
}

// leg runs one xmfuzz -stream invocation: leg 1 fresh with Limit = half
// the plan, leg 2 resuming to the end.
func (f *localFixture) leg(sc *scope, st store.Store, dir string, seed int64, leg int, sink func(int, campaign.Result)) (campaign.EngineStats, error) {
	var (
		src  campaign.Source
		opts campaign.Options
		err  error
	)
	sc.phase(spanBuildPlan, 0, func() {
		var plan campaign.Source
		plan, opts, err = campaign.BuildPlan(f.options(seed))
		src = plan
	})
	if err != nil {
		return campaign.EngineStats{}, err
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	// The engine would build this target itself from the same options;
	// building it here lets the traced run wrap it.
	tgt, err := target.New(opts.Target, target.Config{Inject: inject.Params{Rate: opts.Inject.Rate, Sites: opts.Inject.Sites, Seed: seed}})
	if err != nil {
		return campaign.EngineStats{}, err
	}
	if sc != nil {
		tgt = wrapTarget(tgt, func() *scope { return sc }, false)
		src = wrapSource(src, sc)
	}
	eo := campaign.EngineOptions{
		Options:        opts,
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
		TargetInstance: tgt,
		Store:          st,
	}
	if leg == 1 {
		eo.Limit = src.Len() / 2
	} else {
		eo.Resume = true
	}
	var stats campaign.EngineStats
	sc.phase(spanStream, int64(leg), func() { stats, err = campaign.StreamPlan(src, eo, sink) })
	if err == nil && stats.Executed == 0 {
		err = errors.New("leg executed nothing")
	}
	return stats, err
}

// engineSig renders the deterministic part of an engine run's statistics.
// How the pool's acquisitions split between fresh and recycled machines
// depends on how the workers' acquisitions overlap, so only their sum is
// part of it; discards follow from the tests (a crashed machine is
// discarded).
func engineSig(s campaign.EngineStats) string {
	return fmt.Sprintf("total=%d,executed=%d,skipped=%d,acquired=%d,discarded=%d",
		s.Total, s.Executed, s.Skipped, s.Pool.Allocated+s.Pool.Reused, s.Pool.Discarded)
}
