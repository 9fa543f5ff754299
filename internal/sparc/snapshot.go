package sparc

import (
	"fmt"
	"math/bits"
)

// Snapshot is a copy-on-write image of a Machine's architectural state:
// the contents of every page dirtied at capture time, the clock, device
// and counter state, and the dirty bitmaps themselves. Capture and
// restore both cost O(dirty pages), never O(bank size) — the dirty-page
// tracker that makes Reset cheap makes the image cheap too. A snapshot
// is immutable once captured and may be restored into any machine with
// the same layout, any number of times, from any goroutine holding that
// machine.
//
// Timer handlers are captured by reference: restoring a snapshot with
// armed timers revives closures over whatever kernel owned them at
// capture time. The pool and the execution harness only snapshot
// machines between runs (timers disarmed), where this cannot bite.
type Snapshot struct {
	cfg Config

	now    Time
	timers [NumTimerUnits]TimerUnit
	irqc   IRQController

	console     []byte
	uartWritten uint64
	uartDropped uint64

	crashed     bool
	crashReason string

	reads, writes, trapsRaised uint64

	ram bankSnap
	io  bankSnap
}

// bankSnap captures one writable bank: the dirty bitmap plus the
// contents of each dirty page, concatenated in ascending page order.
type bankSnap struct {
	dirty dirtySet
	pages []uint64 // index of each captured page
	data  []byte   // page contents, DirtyPageSize bytes per entry
}

// captureBank copies the dirty pages of one bank.
func captureBank(b *bank) bankSnap {
	s := bankSnap{dirty: append(dirtySet(nil), b.dirty...)}
	b.dirty.each(func(p uint64) {
		s.pages = append(s.pages, p)
		s.data = append(s.data, b.pages[p][:]...)
	})
	return s
}

// restore rewrites the bank so its content equals the captured image:
// pages dirty now but absent from the snapshot are zeroed in place,
// captured pages are copied back (allocated if need be), and the live
// bitmap becomes a copy of the captured one. Pages dirty in neither are
// untouched — they are zero on both sides.
func (s *bankSnap) restore(b *bank) {
	for wi, w := range b.dirty {
		for stale := w &^ s.dirty[wi]; stale != 0; stale &= stale - 1 {
			clear(b.pages[uint64(wi)*64+uint64(bits.TrailingZeros64(stale))][:])
		}
	}
	for i, p := range s.pages {
		copy(b.page(p)[:], s.data[i*DirtyPageSize:])
	}
	copy(b.dirty, s.dirty)
}

// Pages returns how many dirty pages the snapshot holds.
func (s *Snapshot) Pages() int { return len(s.ram.pages) + len(s.io.pages) }

// Config returns the memory layout the snapshot was captured under.
func (s *Snapshot) Config() Config { return s.cfg }

// PowerOnSnapshot builds the snapshot a NewMachine(cfg) would capture —
// the power-on image, with zero pages — without allocating the banks.
// It is the baseline a SnapshotPool rewinds recycled machines to.
func PowerOnSnapshot(cfg Config) *Snapshot {
	s := &Snapshot{cfg: cfg}
	for i := range s.timers {
		s.timers[i].unit = i
	}
	s.ram.dirty = newDirtySet(cfg.RAMSize)
	s.io.dirty = newDirtySet(cfg.IOSize)
	return s
}

// Snapshot captures the machine's current state. Crashed machines
// snapshot like any other — the crash flag is part of the image.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{
		cfg:         m.cfg,
		now:         m.now,
		timers:      m.timers,
		irqc:        m.irqc,
		console:     append([]byte(nil), m.uart.buf.Bytes()...),
		uartWritten: m.uart.written,
		uartDropped: m.uart.dropped,
		crashed:     m.crashed,
		crashReason: m.crashReason,
		reads:       m.reads,
		writes:      m.writes,
		trapsRaised: m.trapsRaised,
		ram:         captureBank(&m.ram),
		io:          captureBank(&m.io),
	}
}

// RestoreSnapshot rewinds the machine to the snapshot: memory, clock,
// timers, devices, crash flag and access counters all return to their
// captured values, in O(pages dirtied since the capture + pages in the
// image). Crashed machines restore like any other — rewinding past the
// crash is the point (the inject composite recycles its slot this way
// between a crashed leg and the next). Only the reset and audit counters
// and the parked value survive, the reset counter incremented like a
// Reset. Restoring a snapshot of a different memory layout is
// refused.
func (m *Machine) RestoreSnapshot(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("sparc: restore of a nil snapshot")
	}
	if m.cfg != s.cfg {
		return fmt.Errorf("sparc: snapshot layout %+v does not match machine layout %+v", s.cfg, m.cfg)
	}
	s.ram.restore(&m.ram)
	s.io.restore(&m.io)
	m.now = s.now
	m.timers = s.timers
	m.irqc = s.irqc
	m.uart.buf.Reset()
	m.uart.buf.Write(s.console)
	m.uart.written = s.uartWritten
	m.uart.dropped = s.uartDropped
	m.crashed, m.crashReason = s.crashed, s.crashReason
	m.reads, m.writes, m.trapsRaised = s.reads, s.writes, s.trapsRaised
	m.resets++
	return nil
}

// SnapshotPool recycles Machines by rewinding them to the power-on
// snapshot — the copy-on-write successor of MachinePool's
// reset-and-verify cycle. Restore copies known content back instead of
// merely zeroing and re-checking, so the residue audit that dominated
// the recycle cost amortises to one rotating-window scan every
// snapshotAuditStride recycles; the cheap power-on invariants
// (VerifyReset) still run on every Get, and strict mode still scans
// every byte every time. A machine that fails verification — or comes
// back crashed — is discarded and replaced, exactly like MachinePool.
type SnapshotPool struct {
	cfg      Config
	strict   bool
	baseline *Snapshot
	free     *machineShards
	stats    poolCounters
}

// snapshotAuditStride is how many recycles separate two rotating page
// audits of a snapshot pool. The audit exists to surface dirty-tracking
// bugs; the restore path rides the same bitmaps as Reset, so the same
// audit coverage is maintained — just spread over more recycles now
// that the restore itself is trusted content, not merely zeroed.
const snapshotAuditStride = 8

// NewSnapshotPool builds a pool recycling machines with the given
// layout through the power-on snapshot. max bounds how many idle
// machines are retained (<= 0: unbounded, callers are a fixed worker
// set).
func NewSnapshotPool(cfg Config, max int) *SnapshotPool {
	return newSnapshotPoolStripes(cfg, max, 0)
}

// newSnapshotPoolStripes is NewSnapshotPool with an explicit free-list
// stripe count (0: size from max) — the contention benchmark's A/B knob.
func newSnapshotPoolStripes(cfg Config, max, stripes int) *SnapshotPool {
	free := newMachineShards(max)
	if stripes > 0 {
		free = newMachineShardsN(max, stripes)
	}
	return &SnapshotPool{cfg: cfg, baseline: PowerOnSnapshot(cfg), free: free}
}

// Baseline returns the power-on snapshot recycled machines rewind to.
func (p *SnapshotPool) Baseline() *Snapshot { return p.baseline }

// SetStrict selects exhaustive VerifyClean scans on every recycle, as
// in MachinePool's strict mode.
func (p *SnapshotPool) SetStrict(v bool) { p.strict = v }

// Get returns a machine in its power-on state: a rewound one when the
// restore-and-verify cycle succeeds, a fresh allocation otherwise.
func (p *SnapshotPool) Get() *Machine {
	if m := p.free.get(); m != nil {
		err := m.RestoreSnapshot(p.baseline)
		if err == nil {
			err = m.VerifyReset()
		}
		if err == nil {
			if p.strict {
				err = m.VerifyClean()
			} else if m.Resets()%snapshotAuditStride == 0 {
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
// discarded — the contract of Crash is that the embedding harness must
// not trust them again — as is anything built with a different layout.
func (p *SnapshotPool) Put(m *Machine) {
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
func (p *SnapshotPool) Stats() PoolStats {
	st := p.stats.snapshot()
	st.Steals = p.free.steals.Load()
	return st
}
