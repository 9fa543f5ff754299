package sparc

import (
	"encoding/binary"
	"math/bits"
)

// dirtyPageShift sets the dirty-tracking granularity: 4 KiB pages. It is
// also the allocation granularity of the writable banks.
const dirtyPageShift = 12

// DirtyPageSize is the dirty-tracking granularity in bytes — the page
// size DirtyPages addresses are aligned to.
const DirtyPageSize = 1 << dirtyPageShift

const pageMask = DirtyPageSize - 1

// page is one DirtyPageSize unit of writable memory.
type page = [DirtyPageSize]byte

// dirtySet is a page-granular dirty bitmap over one memory bank.
type dirtySet []uint64

func newDirtySet(bankSize uint32) dirtySet {
	return make(dirtySet, (pagesIn(bankSize)+63)/64)
}

// pagesIn is the number of pages covering a bank of size bytes.
func pagesIn(size uint32) uint64 {
	return (uint64(size) + DirtyPageSize - 1) >> dirtyPageShift
}

// mark records that [off, off+size) was written.
func (d dirtySet) mark(off uint64, size uint32) {
	first := off >> dirtyPageShift
	last := (off + uint64(size) - 1) >> dirtyPageShift
	for p := first; p <= last; p++ {
		d[p/64] |= 1 << (p % 64)
	}
}

// empty reports whether no page is marked.
func (d dirtySet) empty() bool {
	for _, w := range d {
		if w != 0 {
			return false
		}
	}
	return true
}

// each calls fn with the index of every marked page, ascending.
func (d dirtySet) each(fn func(p uint64)) {
	for wi, w := range d {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(uint64(wi)*64 + uint64(b))
			w &^= 1 << b
		}
	}
}

// bank is one writable memory bank (RAM or I/O), backed by pages
// allocated on first store. A nil page has never been written and reads
// as zero, so a bank costs its page table plus the pages a machine
// actually touched, never its full size. Every dirty page is allocated;
// an allocated page that is not dirty holds zeros — Reset and
// RestoreSnapshot clear dirty pages in place rather than dropping them,
// so a recycled machine reuses the pages its last run touched.
type bank struct {
	name  string // for residue reports
	base  Addr
	size  uint32
	pages []*page
	dirty dirtySet
	// alloc lists the allocated page indices in allocation order: the
	// set AuditPages rotates over and VerifyClean scans.
	alloc []uint32
}

func newBank(name string, base Addr, size uint32) bank {
	return bank{name: name, base: base, size: size, pages: make([]*page, pagesIn(size)), dirty: newDirtySet(size)}
}

// offset resolves [addr, addr+size) against the bank, returning the
// in-bank offset.
func (b *bank) offset(addr Addr, size uint32) (uint64, bool) {
	return bankOffset(addr, size, b.base, b.size)
}

// bankOffset resolves [addr, addr+size) against a bank of bankSize bytes
// at base, returning the in-bank offset.
func bankOffset(addr Addr, size uint32, base Addr, bankSize uint32) (uint64, bool) {
	off := uint64(addr) - uint64(base)
	return off, uint64(addr) >= uint64(base) && off+uint64(size) <= uint64(bankSize)
}

// page returns page p, allocating it (zeroed, not marked dirty) on first
// use.
func (b *bank) page(p uint64) *page {
	pg := b.pages[p]
	if pg == nil {
		pg = new(page)
		b.pages[p] = pg
		b.alloc = append(b.alloc, uint32(p))
	}
	return pg
}

// read copies the bank bytes at off into dst, splitting at page
// boundaries. A nil bank is ROM, which holds no pages and reads as zero.
func (b *bank) read(off uint64, dst []byte) {
	if b == nil {
		clear(dst)
		return
	}
	for len(dst) > 0 {
		n := min(uint64(len(dst)), DirtyPageSize-off&pageMask)
		if pg := b.pages[off>>dirtyPageShift]; pg != nil {
			copy(dst[:n], pg[off&pageMask:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// write stores src at off, splitting at page boundaries, allocating
// pages on first store and marking every touched page dirty.
func (b *bank) write(off uint64, src []byte) {
	if len(src) == 0 {
		return
	}
	b.dirty.mark(off, uint32(len(src)))
	for len(src) > 0 {
		n := copy(b.page(off >> dirtyPageShift)[off&pageMask:], src)
		src = src[n:]
		off += uint64(n)
	}
}

// load32 and load64 decode an aligned big-endian word at off. Aligned
// words never straddle a page.
func (b *bank) load32(off uint64) uint32 {
	if b == nil {
		return 0
	}
	if pg := b.pages[off>>dirtyPageShift]; pg != nil {
		return binary.BigEndian.Uint32(pg[off&pageMask:])
	}
	return 0
}

func (b *bank) load64(off uint64) uint64 {
	if b == nil {
		return 0
	}
	if pg := b.pages[off>>dirtyPageShift]; pg != nil {
		return binary.BigEndian.Uint64(pg[off&pageMask:])
	}
	return 0
}

// scrub zeroes every dirty page in place and clears the dirty set.
func (b *bank) scrub() {
	b.dirty.each(func(p uint64) { clear(b.pages[p][:]) })
	clear(b.dirty)
}

// residue returns the in-bank offset of the first nonzero byte of page
// p, or false when the page is zero (unallocated pages always are).
func (b *bank) residue(p uint64) (uint64, bool) {
	pg := b.pages[p]
	if pg == nil {
		return 0, false
	}
	// Word-wise scan; on a hit, pin down the exact byte.
	for off := 0; off < DirtyPageSize; off += 8 {
		if binary.NativeEndian.Uint64(pg[off:]) == 0 {
			continue
		}
		for i := off; ; i++ {
			if pg[i] != 0 {
				return p<<dirtyPageShift + uint64(i), true
			}
		}
	}
	return 0, false
}
