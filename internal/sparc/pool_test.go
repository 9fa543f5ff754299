package sparc

import "testing"

// dirtyMachine powers on a machine and leaves realistic residue: memory
// stores across banks, an armed timer, console output, a raised interrupt
// and an advanced clock.
func dirtyMachine(t *testing.T) *Machine {
	t.Helper()
	m := NewDefaultMachine()
	if tr := m.Write(m.cfg.RAMBase+0x1234, []byte{0xde, 0xad, 0xbe, 0xef}); tr != nil {
		t.Fatal(tr)
	}
	if tr := m.Write32(m.cfg.IOBase+0x40, 0xcafe); tr != nil {
		t.Fatal(tr)
	}
	// A write spanning a page boundary must dirty both pages.
	if tr := m.Write(m.cfg.RAMBase+Addr(1<<dirtyPageShift)-2, []byte{1, 2, 3, 4}); tr != nil {
		t.Fatal(tr)
	}
	m.Timer(0).Arm(500, func(m *Machine, unit int, at Time) {})
	m.UART().WriteString("residue\n")
	m.IRQ().Raise(4)
	if err := m.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	return m
}

// poke stores v at addr behind the dirty tracker's back: straight into the
// page, allocating it but marking nothing dirty — the bookkeeping escape
// the residue checks exist to catch.
func poke(t *testing.T, m *Machine, addr Addr, v byte) {
	t.Helper()
	b, off, ok := m.resolve(addr, 1)
	if !ok || b == nil {
		t.Fatalf("poke at %#x: not writable memory", uint32(addr))
	}
	b.page(off >> dirtyPageShift)[off&pageMask] = v
}

func TestResetScrubsEverything(t *testing.T) {
	m := dirtyMachine(t)
	if err := m.VerifyClean(); err == nil {
		t.Fatal("dirty machine passed VerifyClean")
	}
	m.Reset()
	if err := m.VerifyClean(); err != nil {
		t.Fatalf("reset machine not clean: %v", err)
	}
	if m.Resets() != 1 {
		t.Fatalf("resets = %d", m.Resets())
	}
}

func TestResetClearsCrash(t *testing.T) {
	m := NewDefaultMachine()
	m.Crash("test")
	m.Reset()
	if crashed, _ := m.Crashed(); crashed {
		t.Fatal("reset machine still crashed")
	}
	if err := m.AdvanceTo(10); err != nil {
		t.Fatalf("reset machine refuses to run: %v", err)
	}
}

func TestVerifyCleanFindsRawResidue(t *testing.T) {
	m := NewDefaultMachine()
	// Simulate a bookkeeping escape: memory mutated behind the dirty
	// tracker's back.
	poke(t, m, m.cfg.RAMBase+42, 1)
	if err := m.VerifyClean(); err == nil {
		t.Fatal("raw residue not detected")
	}
}

func TestPoolRecyclesCleanMachines(t *testing.T) {
	p := NewMachinePool(DefaultConfig(), 4)
	m := p.Get()
	if tr := m.Write(m.Config().RAMBase, []byte{9, 9, 9}); tr != nil {
		t.Fatal(tr)
	}
	p.Put(m)
	m2 := p.Get()
	if m2 != m {
		t.Fatal("pool did not recycle the machine")
	}
	if err := m2.VerifyClean(); err != nil {
		t.Fatalf("recycled machine dirty: %v", err)
	}
	st := p.Stats()
	if st.Allocated != 1 || st.Reused != 1 || st.Discarded != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolDiscardsCrashedMachines(t *testing.T) {
	p := NewMachinePool(DefaultConfig(), 4)
	m := p.Get()
	m.Crash("simulator died")
	p.Put(m)
	m2 := p.Get()
	if m2 == m {
		t.Fatal("pool recycled a crashed machine")
	}
	st := p.Stats()
	if st.Discarded != 1 || st.Allocated != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAuditPagesSweepsWholeBank(t *testing.T) {
	m := NewDefaultMachine()
	// Legitimate traffic on 20 RAM pages, scrubbed by the reset below,
	// then residue the dirty tracker knows nothing about, far into RAM:
	// the residue page is the last of 21 in allocation order, outside
	// the first audit window.
	for i := 0; i < 20; i++ {
		if tr := m.Write(m.cfg.RAMBase+Addr(i)<<dirtyPageShift, []byte{1}); tr != nil {
			t.Fatal(tr)
		}
	}
	poke(t, m, m.cfg.RAMBase+Addr(m.cfg.RAMSize)-100, 0xaa)
	m.Reset()
	if err := m.AuditPages(8); err != nil {
		t.Fatalf("first audit (pages 0-7) reported %v", err)
	}
	found := false
	for i := 0; i < 21/8+1; i++ {
		if err := m.AuditPages(8); err != nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("a full sweep of rotating audits missed the residue")
	}
}

// TestSnapshotPoolAuditSweepsEveryPage: the snapshot pool audits only
// every snapshotAuditStride-th recycle, and the audit window must still
// reach every allocated page. 64 allocated pages is the case where a
// window keyed on the reset count aliases onto pages 0-7 forever.
func TestSnapshotPoolAuditSweepsEveryPage(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 1)
	m := p.Get()
	for i := 0; i < 63; i++ {
		if tr := m.Write(m.cfg.RAMBase+Addr(i)<<dirtyPageShift, []byte{1}); tr != nil {
			t.Fatal(tr)
		}
	}
	poke(t, m, m.cfg.RAMBase+Addr(63)<<dirtyPageShift+5, 0xaa)
	const sweep = snapshotAuditStride * (64/auditPagesPerGet + 1)
	for i := 0; i < sweep; i++ {
		p.Put(m)
		if m2 := p.Get(); m2 != m {
			if st := p.Stats(); st.Discarded != 1 {
				t.Fatalf("pool replaced the machine without a discard: %+v", st)
			}
			return
		}
	}
	t.Fatalf("%d recycles never audited the residue page", sweep)
}

func TestPoolStrictModeScans(t *testing.T) {
	p := NewMachinePool(DefaultConfig(), 4)
	p.SetStrict(true)
	m := p.Get()
	p.Put(m)
	// Mutate behind the tracker's back: strict verification must refuse
	// to recycle and fall back to a fresh machine.
	poke(t, m, m.cfg.RAMBase+7, 0xff)
	m2 := p.Get()
	if m2 == m {
		t.Fatal("strict pool recycled a machine with untracked residue")
	}
	if st := p.Stats(); st.Discarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolCapsRetention(t *testing.T) {
	p := NewMachinePool(DefaultConfig(), 1)
	a, b := p.Get(), p.Get()
	p.Put(a)
	p.Put(b) // over capacity: silently dropped
	if got := p.Get(); got != a {
		t.Fatal("expected the one retained machine")
	}
	if got := p.free.get(); got != nil {
		t.Fatalf("free list still holds %p", got)
	}
}

// TestShardsRetainAcrossStripes: a machine put while one stripe is full
// overflows to another instead of being dropped, and get steals from
// whatever stripe holds one.
func TestShardsRetainAcrossStripes(t *testing.T) {
	s := newMachineShardsN(4, 4)
	cfg := DefaultConfig()
	machines := make(map[*Machine]bool)
	for i := 0; i < 4; i++ {
		m := NewMachine(cfg)
		machines[m] = true
		if !s.put(m) {
			t.Fatalf("put %d refused with capacity for 4", i)
		}
	}
	for i := 0; i < 4; i++ {
		m := s.get()
		if m == nil {
			t.Fatalf("get %d found nothing with 4 machines pooled", i)
		}
		if !machines[m] {
			t.Fatalf("get %d returned a machine never put", i)
		}
		delete(machines, m)
	}
	if s.get() != nil {
		t.Fatal("empty shards returned a machine")
	}
}
