package sparc

// Pool is the machine-recycling contract shared by MachinePool (the
// legacy reset-and-verify recycler) and SnapshotPool (the copy-on-write
// snapshot recycler): Get returns a verified power-on machine, Put hands
// one back.
type Pool interface {
	Get() *Machine
	Put(*Machine)
	Stats() PoolStats
	SetStrict(bool)
}

// PoolStats counts what a MachinePool did over its lifetime.
type PoolStats struct {
	// Allocated is the number of machines built from scratch.
	Allocated uint64
	// Reused is the number of Gets served by recycling a pooled machine.
	Reused uint64
	// Discarded counts machines the pool refused to recycle: crashed
	// simulators handed back via Put, and machines that failed the
	// post-reset verification.
	Discarded uint64
	// Steals counts Gets served from a free-list stripe other than the
	// caller's round-robin home — cross-stripe traffic that measures how
	// well the striping spreads the workers.
	Steals uint64
}

// MachinePool recycles Machines across independent runs. A machine costs
// the memory pages it touches; the pool keeps a machine and its pages
// alive across runs and relies on Machine.Reset's dirty-page scrubbing
// (in place, so the pages are reused) to restore the power-on state at a
// cost proportional to what the previous run touched.
//
// Every recycled machine is reset *and verified*: Get replays the cheap
// power-on invariants (VerifyReset) plus a rotating page audit
// (AuditPages) that sweeps the banks across successive recycles, and in
// strict mode the exhaustive VerifyClean memory scan. A machine that fails
// verification — or that comes back crashed — is discarded and replaced
// with a fresh allocation. The invariant check alone cannot see a page the
// dirty tracker missed; the rotating audit bounds how long such a
// bookkeeping bug could leak before surfacing as a discard, and strict
// mode (plus the reset-isolation tests) rules it out deterministically.
//
// The free list is striped and the counters are atomic, so concurrent
// workers contend on disjoint stripes instead of one mutex (see
// machineShards and BenchmarkPoolContention).
type MachinePool struct {
	cfg    Config
	strict bool
	free   *machineShards
	stats  poolCounters
}

// auditPagesPerGet is the rotating-audit window of a non-strict recycle:
// 8 pages (32 KiB) per audit keeps it in the noise of a single test's
// cost, and a machine with T allocated pages is swept whole every
// ceil(T/8) audits (AuditPages rotates its own window).
const auditPagesPerGet = 8

// NewMachinePool builds a pool producing machines with the given layout.
// max bounds how many idle machines are retained (<= 0: one per caller is
// kept, i.e. unbounded — callers are expected to be a fixed worker set).
func NewMachinePool(cfg Config, max int) *MachinePool {
	return &MachinePool{cfg: cfg, free: newMachineShards(max)}
}

// SetStrict selects exhaustive VerifyClean scans on every recycle. This is
// orders of magnitude slower than the default invariant check; it exists
// for isolation tests and paranoid runs.
func (p *MachinePool) SetStrict(v bool) { p.strict = v }

// Get returns a machine in its power-on state: a recycled one when the
// reset-and-verify cycle succeeds, a fresh allocation otherwise.
func (p *MachinePool) Get() *Machine {
	if m := p.free.get(); m != nil {
		m.Reset()
		err := m.VerifyReset()
		if err == nil {
			if p.strict {
				err = m.VerifyClean()
			} else {
				err = m.AuditPages(auditPagesPerGet)
			}
		}
		if err == nil {
			p.stats.reused.Add(1)
			return m
		}
		p.stats.discarded.Add(1)
	}
	p.stats.allocated.Add(1)
	return NewMachine(p.cfg)
}

// Put hands a machine back for recycling. Crashed simulators are
// discarded — the contract of Crash is that the embedding harness must not
// trust them again — as is anything built with a different layout.
func (p *MachinePool) Put(m *Machine) {
	if m == nil {
		return
	}
	if crashed, _ := m.Crashed(); crashed || m.Config() != p.cfg {
		p.stats.discarded.Add(1)
		return
	}
	p.free.put(m)
}

// Stats snapshots the pool counters.
func (p *MachinePool) Stats() PoolStats {
	st := p.stats.snapshot()
	st.Steals = p.free.steals.Load()
	return st
}
