package sparc

import (
	"bytes"
	"runtime"
	"testing"
)

// allocated counts the pages a machine's writable banks hold.
func allocated(m *Machine) int { return len(m.ram.alloc) + len(m.io.alloc) }

// TestCrossPageAccess writes a span straddling three page boundaries and
// reads it back through every access form, including a read window that
// runs on into a page never written.
func TestCrossPageAccess(t *testing.T) {
	m := NewDefaultMachine()
	base := m.cfg.RAMBase + 3*DirtyPageSize - 5
	data := make([]byte, 2*DirtyPageSize+10)
	for i := range data {
		data[i] = byte(i%251 + 1)
	}
	if tr := m.Write(base, data); tr != nil {
		t.Fatal(tr)
	}
	if got := allocated(m); got != 4 {
		t.Fatalf("span over 4 pages allocated %d", got)
	}
	want := []Addr{
		m.cfg.RAMBase + 2*DirtyPageSize, m.cfg.RAMBase + 3*DirtyPageSize,
		m.cfg.RAMBase + 4*DirtyPageSize, m.cfg.RAMBase + 5*DirtyPageSize,
	}
	if got := m.DirtyPages(); len(got) != len(want) || got[0] != want[0] || got[3] != want[3] {
		t.Fatalf("DirtyPages = %#x, want %#x", got, want)
	}

	got, tr := m.Read(base, uint32(len(data)))
	if tr != nil {
		t.Fatal(tr)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page Read differs from what was written")
	}
	// A window from before the span to past its end: the leading bytes of
	// the first page and the tail of the last written page read as zero,
	// and so does the untouched page after it.
	win := make([]byte, 3*DirtyPageSize)
	for i := range win {
		win[i] = 0xee // ReadInto must overwrite every byte
	}
	if tr := m.ReadInto(base-7, win); tr != nil {
		t.Fatal(tr)
	}
	wantWin := make([]byte, len(win))
	copy(wantWin[7:], data)
	if !bytes.Equal(win, wantWin) {
		t.Fatal("cross-page ReadInto differs from the written span padded with zeros")
	}
	if got := allocated(m); got != 4 {
		t.Fatalf("reads allocated pages: %d allocated, want 4", got)
	}

	// Word access at the last word of a page and the first of the next.
	edge := m.cfg.RAMBase + 8*DirtyPageSize - 4
	if tr := m.Write64(edge-4, 0x0102030405060708); tr != nil {
		t.Fatal(tr)
	}
	if tr := m.Write32(edge+4, 0xa0b0c0d0); tr != nil {
		t.Fatal(tr)
	}
	w, tr := m.Read(edge-4, 12)
	if tr != nil {
		t.Fatal(tr)
	}
	if !bytes.Equal(w, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xa0, 0xb0, 0xc0, 0xd0}) {
		t.Fatalf("words around a page boundary read back as %x", w)
	}
}

// TestUnwrittenMemoryReadsZero: every bank reads as zero before any store,
// through every access form, and reading allocates nothing.
func TestUnwrittenMemoryReadsZero(t *testing.T) {
	m := NewDefaultMachine()
	for _, a := range []Addr{
		m.cfg.ROMBase, m.cfg.ROMBase + Addr(m.cfg.ROMSize) - 8,
		m.cfg.RAMBase, m.cfg.RAMBase + Addr(m.cfg.RAMSize) - 8,
		m.cfg.IOBase, m.cfg.IOBase + Addr(m.cfg.IOSize) - 8,
	} {
		if v, tr := m.Read32(a); tr != nil || v != 0 {
			t.Errorf("Read32(%#x) = %#x, %v", uint32(a), v, tr)
		}
		if v, tr := m.Read64(a); tr != nil || v != 0 {
			t.Errorf("Read64(%#x) = %#x, %v", uint32(a), v, tr)
		}
		b, tr := m.Read(a, 8)
		if tr != nil || !bytes.Equal(b, make([]byte, 8)) {
			t.Errorf("Read(%#x) = %x, %v", uint32(a), b, tr)
		}
		buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		if tr := m.ReadInto(a, buf); tr != nil || !bytes.Equal(buf, make([]byte, 8)) {
			t.Errorf("ReadInto(%#x) = %x, %v", uint32(a), buf, tr)
		}
	}
	if n := allocated(m); n != 0 {
		t.Fatalf("reads allocated %d pages", n)
	}
	if err := m.VerifyClean(); err != nil {
		t.Fatal(err)
	}
}

// TestFlipBitOnUntouchedPage: an upset in a page no run has written lands
// on a zero byte, allocates and dirties the page, and Reset scrubs it.
func TestFlipBitOnUntouchedPage(t *testing.T) {
	m := NewDefaultMachine()
	for _, a := range []Addr{m.cfg.RAMBase + 0x7003, m.cfg.IOBase + 0x2001} {
		if !m.FlipBit(a, 5) {
			t.Fatalf("flip at %#x refused", uint32(a))
		}
		b, tr := m.Read(a, 1)
		if tr != nil || b[0] != 1<<5 {
			t.Fatalf("flipped byte at %#x = %x, %v", uint32(a), b, tr)
		}
	}
	if got := m.DirtyPages(); len(got) != 2 || got[0] != m.cfg.RAMBase+0x7000 || got[1] != m.cfg.IOBase+0x2000 {
		t.Fatalf("DirtyPages = %#x", got)
	}
	if m.FlipBit(m.cfg.ROMBase+0x10, 1) {
		t.Fatal("flip in PROM accepted")
	}
	m.Reset()
	if err := m.VerifyClean(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotOverAllocatedAndUnallocatedPages round-trips a snapshot
// across pages in every state: captured and rewritten, captured then
// flipped, allocated after the capture, and never allocated. The same
// snapshot also restores into a brand-new machine, whose pages do not
// exist yet.
func TestSnapshotOverAllocatedAndUnallocatedPages(t *testing.T) {
	m := NewDefaultMachine()
	ram := m.cfg.RAMBase
	if tr := m.Write(ram+0x1000, []byte{1, 2, 3}); tr != nil {
		t.Fatal(tr)
	}
	if tr := m.Write(m.cfg.IOBase+0x10, []byte{4}); tr != nil {
		t.Fatal(tr)
	}
	// Allocated, then scrubbed by Reset: allocated but clean at capture.
	if tr := m.Write(ram+0x9000, []byte{9}); tr != nil {
		t.Fatal(tr)
	}
	m.Reset()
	if tr := m.Write(ram+0x1000, []byte{1, 2, 3}); tr != nil {
		t.Fatal(tr)
	}
	if tr := m.Write(m.cfg.IOBase+0x10, []byte{4}); tr != nil {
		t.Fatal(tr)
	}
	snap := m.Snapshot()
	if snap.Pages() != 2 {
		t.Fatalf("snapshot holds %d pages, want the 2 dirty ones", snap.Pages())
	}

	if tr := m.Write(ram+0x1001, []byte{0xff}); tr != nil {
		t.Fatal(tr)
	}
	m.FlipBit(ram+0x9000, 0)
	if tr := m.Write(ram+0x20000, []byte{7}); tr != nil {
		t.Fatal(tr)
	}

	fresh := NewDefaultMachine()
	for _, mm := range []*Machine{m, fresh} {
		if err := mm.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			addr Addr
			want []byte
		}{
			{ram + 0x1000, []byte{1, 2, 3}},
			{m.cfg.IOBase + 0x10, []byte{4}},
			{ram + 0x9000, []byte{0}},
			{ram + 0x20000, []byte{0}},
			{ram + 0x40000, []byte{0}},
		} {
			if got, tr := mm.Read(c.addr, uint32(len(c.want))); tr != nil || !bytes.Equal(got, c.want) {
				t.Errorf("restored %#x = %x, %v; want %x", uint32(c.addr), got, tr, c.want)
			}
		}
		if got := mm.DirtyPages(); len(got) != 2 {
			t.Errorf("restored dirty pages = %#x, want the captured 2", got)
		}
		if err := mm.RestoreSnapshot(PowerOnSnapshot(mm.cfg)); err != nil {
			t.Fatal(err)
		}
		if err := mm.VerifyClean(); err != nil {
			t.Fatalf("power-on restore left residue: %v", err)
		}
	}
}

// TestResidueChecksScanEveryBank: strict VerifyClean and the rotating
// audit both find bytes poked behind the tracker in either writable bank.
func TestResidueChecksScanEveryBank(t *testing.T) {
	cfg := DefaultConfig()
	for _, a := range []Addr{cfg.RAMBase + 0x3456, cfg.IOBase + Addr(cfg.IOSize) - 1} {
		m := NewMachine(cfg)
		poke(t, m, a, 0x40)
		if err := m.VerifyClean(); err == nil {
			t.Errorf("VerifyClean missed residue at %#x", uint32(a))
		}
		if err := m.AuditPages(1); err == nil {
			t.Errorf("AuditPages missed residue at %#x", uint32(a))
		}
	}
}

var machineSink *Machine

// TestNewMachineAllocationBound pins what a machine costs before it runs:
// page tables and dirty bitmaps, no memory pages.
func TestNewMachineAllocationBound(t *testing.T) {
	const n = 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		machineSink = NewDefaultMachine()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 64<<10 {
		t.Fatalf("NewMachine allocates %d bytes, want < 64 KiB", per)
	}
}
