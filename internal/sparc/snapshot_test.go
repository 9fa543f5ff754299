package sparc

import (
	"bytes"
	"testing"
)

// TestSnapshotRestoreRoundTrip captures a dirty machine, dirties it
// further, and checks the restore rewinds every observable back to the
// captured state — the snapshot/restore leg of the
// TestResetScrubsEverything family.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := dirtyMachine(t)
	snap := m.Snapshot()
	if snap.Pages() == 0 {
		t.Fatal("snapshot of a dirty machine holds no pages")
	}

	// Mutate well past the captured state: new pages, a flipped bit in a
	// captured page, device and clock churn, then a crash.
	if tr := m.Write(m.Config().RAMBase+0x200000, []byte{1, 2, 3}); tr != nil {
		t.Fatal(tr)
	}
	m.FlipBit(m.Config().RAMBase+0x1234, 3)
	m.UART().WriteString("post-snapshot noise\n")
	m.IRQ().Raise(9)
	if err := m.AdvanceTo(4000); err != nil {
		t.Fatal(err)
	}
	m.Crash("post-snapshot crash")

	if err := m.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if crashed, _ := m.Crashed(); crashed {
		t.Fatal("restore did not rewind the crash flag")
	}
	if m.Now() != 100 {
		t.Fatalf("restored clock at %dus, want 100", m.Now())
	}
	if got := m.UART().String(); got != "residue\n" {
		t.Fatalf("restored console = %q", got)
	}
	if m.IRQ().Pending() != 1<<4 {
		t.Fatalf("restored pending IRQs = %#x", m.IRQ().Pending())
	}
	if armed, at := m.Timer(0).Armed(); !armed || at != 500 {
		t.Fatalf("restored timer armed=%v at=%d", armed, at)
	}
	b, tr := m.Read(m.Config().RAMBase+0x1234, 4)
	if tr != nil {
		t.Fatal(tr)
	}
	if !bytes.Equal(b, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Fatalf("restored RAM = %x", b)
	}
	b, tr = m.Read(m.Config().RAMBase+0x200000, 3)
	if tr != nil {
		t.Fatal(tr)
	}
	if !bytes.Equal(b, []byte{0, 0, 0}) {
		t.Fatalf("page dirtied after the snapshot not rewound to zero: %x", b)
	}
}

// TestSnapshotRestoreToPowerOn checks that restoring the power-on
// baseline is exactly a scrub: a machine dirtied, crashed and
// bit-flipped rewinds to a state VerifyClean accepts.
func TestSnapshotRestoreToPowerOn(t *testing.T) {
	base := PowerOnSnapshot(DefaultConfig())
	m := dirtyMachine(t)
	// Compose with the inject primitives: peek-poke flips mark pages
	// dirty exactly like stores, so the restore must scrub them too.
	if !m.FlipBit(m.Config().RAMBase+0x500000, 5) {
		t.Fatal("flip refused")
	}
	m.FlipClockBit(7)
	m.Crash("leg crashed")
	if err := m.RestoreSnapshot(base); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyClean(); err != nil {
		t.Fatalf("restored machine not at power-on: %v", err)
	}
}

// TestSnapshotAfterReset covers the defensive corner: a Reset between
// capture and restore clears the live dirty bitmaps, so the restore
// must copy captured pages back even though they are no longer marked.
func TestSnapshotAfterReset(t *testing.T) {
	m := dirtyMachine(t)
	snap := m.Snapshot()
	m.Reset()
	if err := m.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	b, tr := m.Read(m.Config().RAMBase+0x1234, 4)
	if tr != nil {
		t.Fatal(tr)
	}
	if !bytes.Equal(b, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Fatalf("captured page lost across Reset: %x", b)
	}
}

func TestSnapshotLayoutMismatchRefused(t *testing.T) {
	small := DefaultConfig()
	small.RAMSize = 1 << 20
	m := NewDefaultMachine()
	if err := m.RestoreSnapshot(NewMachine(small).Snapshot()); err == nil {
		t.Fatal("restore accepted a snapshot of a different layout")
	}
	if err := m.RestoreSnapshot(nil); err == nil {
		t.Fatal("restore accepted a nil snapshot")
	}
}

func TestSnapshotPoolRecyclesThroughRestore(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 4)
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

func TestSnapshotPoolDiscardsCrashedMachines(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 4)
	m := p.Get()
	m.Crash("simulator died")
	p.Put(m)
	m2 := p.Get()
	if m2 == m {
		t.Fatal("pool recycled a crashed machine")
	}
	if st := p.Stats(); st.Discarded != 1 || st.Allocated != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotPoolStrictModeScans(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 4)
	p.SetStrict(true)
	m := p.Get()
	p.Put(m)
	// Mutate behind the tracker's back: the restore rides the dirty
	// bitmaps and cannot see this, so strict verification must refuse
	// the recycle and fall back to a fresh machine.
	poke(t, m, m.Config().RAMBase+7, 0xff)
	m2 := p.Get()
	if m2 == m {
		t.Fatal("strict snapshot pool recycled a machine with untracked residue")
	}
	if st := p.Stats(); st.Discarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSnapshotPoolResidueSweep hammers the recycle loop with dirty,
// flipped and crashed machines under strict mode: every Get must come
// back byte-clean. This is the snapshot analogue of the legacy pool's
// reset-isolation guarantee.
func TestSnapshotPoolResidueSweep(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 2)
	p.SetStrict(true)
	for i := 0; i < 12; i++ {
		m := p.Get()
		if err := m.VerifyClean(); err != nil {
			t.Fatalf("recycle %d: %v", i, err)
		}
		addr := m.Config().RAMBase + Addr(i)<<dirtyPageShift
		if tr := m.Write(addr, []byte{byte(i + 1)}); tr != nil {
			t.Fatal(tr)
		}
		m.FlipBit(addr+DirtyPageSize, uint8(i))
		if i%3 == 0 {
			m.Crash("sweep crash")
		}
		p.Put(m)
	}
}

func TestReadIntoMatchesRead(t *testing.T) {
	m := NewDefaultMachine()
	if tr := m.Write(m.Config().RAMBase+8, []byte{1, 2, 3, 4, 5}); tr != nil {
		t.Fatal(tr)
	}
	want, tr := m.Read(m.Config().RAMBase+8, 5)
	if tr != nil {
		t.Fatal(tr)
	}
	got := make([]byte, 5)
	if tr := m.ReadInto(m.Config().RAMBase+8, got); tr != nil {
		t.Fatal(tr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadInto = %x, Read = %x", got, want)
	}
	if tr := m.ReadInto(0xdeadbeef, got); tr == nil {
		t.Fatal("ReadInto of an unbacked address did not trap")
	}
}
