package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xmrobust/internal/sparc"
)

// env is what a workload's fixture is built from.
type env struct {
	work    string  // scratch directory for campaign data, removed at exit
	workers int     // engine workers, clients and connections: nproc
	tr      *tracer // nil: untraced
	plan    string  // per-campaign test plan
}

// scope opens the trace scope of operation k (nil when untraced).
func (e *env) scope(k int) *scope {
	if e.tr == nil {
		return nil
	}
	return e.tr.newScope(k)
}

// fixture is a set-up workload: op runs one closed-loop operation.
type fixture interface {
	// op runs operation k for client c at campaign seed seed, checking
	// its outputs against ref.
	op(k, c int, seed int64, ref *reference) opResult
	close() error
}

// workload is one benchmark workload.
type workload struct {
	name string
	// plan is the per-campaign test plan.
	plan string
	// clients is the number of concurrent closed-loop callers.
	clients func(nproc int) int
	setup   func(e *env) (fixture, error)
	// reference computes the expected outputs of one campaign seed from
	// an uninterrupted library run.
	reference func(e *env, seed int64) (*reference, error)
}

var workloads = []workload{cliResume, libInject, daemonFuzz, fleetLoopback}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func oneClient(int) int { return 1 }

// opResult is what one operation did.
type opResult struct {
	seed        int64
	tests       int
	latency     time.Duration
	firstRecord time.Duration
	err         error
	// engine is the signature of the engine's statistics (executed,
	// skipped and pool counters per leg): tracing must not change it.
	engine string
	pool   sparc.PoolStats
	// service and wire counts (daemon_fuzz, fleet_loopback).
	sseEvents int
	sseBytes  int64
	wireBytes int64
}

// reference is the expected output of one campaign seed.
type reference struct {
	logSHA  [32]byte
	records int
	log     []byte // the merged log, kept for the codec measurement
	// lib_inject: the rendered report, its issue count and the
	// injection tally.
	summarySHA [32]byte
	issues     int
	tally      string
	legacy     []string // IDs of the paper's legacy-kernel issues
}

// checkLog compares a merged log against the reference.
func (r *reference) checkLog(sum [32]byte, records int) error {
	if records != r.records {
		return fmt.Errorf("merged log has %d records, want %d", records, r.records)
	}
	if sum != r.logSHA {
		return fmt.Errorf("merged log sha256 %x differs from the reference %x", sum[:8], r.logSHA[:8])
	}
	return nil
}

// checkLogBytes is checkLog over the bytes themselves.
func (r *reference) checkLogBytes(log []byte) error {
	return r.checkLog(sha256.Sum256(log), bytes.Count(log, []byte{'\n'}))
}

// campaignSeeds derives the per-campaign seeds of a run from the
// workload seed (splitmix64), so one --seed fixes every input.
func campaignSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z >> 33) // small positive seeds read well in logs
	}
	return out
}

// window is one closed-loop measurement.
type window struct {
	ops     []opResult
	wall    time.Duration
	cpu     time.Duration
	sys     time.Duration // the system (kernel) part of cpu
	mallocs uint64
	bytes   uint64
}

func (w window) tests() int {
	n := 0
	for _, op := range w.ops {
		n += op.tests
	}
	return n
}

func (w window) failed() int {
	n := 0
	for _, op := range w.ops {
		if op.err != nil {
			n++
		}
	}
	return n
}

func (w window) testsPerSec() float64 {
	if w.wall <= 0 {
		return 0
	}
	return float64(w.tests()) / w.wall.Seconds()
}

// loop bounds one measurement window.
type loop struct {
	minDur time.Duration // keep starting operations at least this long
	minOps int           // ... and until this many have started
	maxDur time.Duration // never start one after this
	kBase  int           // operation numbering (campaign ids)
}

// measure runs clients closed-loop callers against fx. Operation k uses
// campaign seed seeds[k % len(seeds)]; each caller starts its next
// operation when the previous one returns.
func measure(fx fixture, clients int, seeds []int64, refs map[int64]*reference, lp loop) window {
	var (
		next atomic.Int64
		mu   sync.Mutex
		ops  []opResult
		wg   sync.WaitGroup
	)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ru0 := readRusage()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				el := time.Since(start)
				if el >= lp.maxDur || (el >= lp.minDur && k >= lp.minOps) {
					return
				}
				seed := seeds[k%len(seeds)]
				res := fx.op(lp.kBase+k, c, seed, refs[seed])
				mu.Lock()
				ops = append(ops, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	ru1 := readRusage()
	runtime.ReadMemStats(&ms1)
	return window{
		ops:     ops,
		wall:    wall,
		cpu:     ru1.cpu - ru0.cpu,
		sys:     ru1.sys - ru0.sys,
		mallocs: ms1.Mallocs - ms0.Mallocs,
		bytes:   ms1.TotalAlloc - ms0.TotalAlloc,
	}
}
