// Package cover is the edge-coverage substrate of the coverage-guided
// feedback loop: a cheap, fixed-size, allocation-free bitmap over the
// simulated kernel's instrumentation sites. The kernel (package xm) maps
// each observable control-flow edge — hypercall dispatch outcome,
// service-internal branch, health-monitor event, lifecycle transition —
// to a site identifier below NumSites; a Map records which sites one
// execution lit up.
//
// Maps compose: the campaign engine collects one Map per test, the corpus
// store merges them into the global coverage frontier, and CountNew is
// the admission signal of the feedback plan ("did this dataset execute a
// kernel edge no earlier dataset did?"). Signature hashes a map into a
// stable 64-bit coverage signature, the same role the CRASH cluster key
// plays for failures: tests with equal signatures exercised identical
// kernel edge sets and are behaviourally redundant.
package cover

import "math/bits"

const (
	// KindBits is the payload width of one site kind; site identifiers
	// are kind<<KindBits | payload (see package xm's encoders).
	KindBits = 13
	// NumSites is the size of the site identifier space: 4 kinds of
	// 2^KindBits sites. At one bit per site a Map is 4 KiB.
	NumSites = 4 << KindBits

	words = NumSites / 64
)

// Map is a fixed-size edge-coverage bitmap. The zero value is an empty
// map ready for use; Hit/Merge/Count never allocate.
type Map struct {
	bits [words]uint64
}

// Hit marks one site as covered. Sites at or above NumSites wrap — the
// encoders never emit them, but a corrupt site must not panic the kernel
// hot path.
func (m *Map) Hit(site uint32) {
	site %= NumSites
	m.bits[site>>6] |= 1 << (site & 63)
}

// Has reports whether a site is covered.
func (m *Map) Has(site uint32) bool {
	site %= NumSites
	return m.bits[site>>6]&(1<<(site&63)) != 0
}

// Count returns the number of covered sites.
func (m *Map) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no site is covered.
func (m *Map) Empty() bool {
	for _, w := range m.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset clears the map.
func (m *Map) Reset() {
	m.bits = [words]uint64{}
}

// CountNew returns how many sites o covers that m does not — the
// admission signal of the corpus store, without mutating either map.
func (m *Map) CountNew(o *Map) int {
	n := 0
	for i, w := range o.bits {
		n += bits.OnesCount64(w &^ m.bits[i])
	}
	return n
}

// Merge ORs o into m and returns the number of sites that were new to m.
func (m *Map) Merge(o *Map) int {
	n := 0
	for i, w := range o.bits {
		if nw := w &^ m.bits[i]; nw != 0 {
			n += bits.OnesCount64(nw)
			m.bits[i] |= nw
		}
	}
	return n
}

// FNV-1a parameters of Signature. prime8 is prime^8 mod 2^64: a zero
// byte leaves the FNV-1a state's xor step a no-op, so hashing a zero word
// is exactly eight multiplications by prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvPrime8 = 2232315406967589409
)

// Signature hashes the covered site set into a stable 64-bit value
// (FNV-1a over the bitmap words, low byte first). Equal signatures mean
// identical edge sets; the feedback report and the corpus file carry it
// as the compact coverage identity of a test. Coverage maps are sparse,
// so zero words take the one-multiply shortcut; the value is the
// byte-wise hash's, bit for bit.
func (m *Map) Signature() uint64 {
	h := uint64(fnvOffset)
	for _, w := range m.bits {
		if w == 0 {
			h *= fnvPrime8
			continue
		}
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// Sites returns the covered site identifiers in ascending order — the
// sparse serialised form campaign log records carry.
func (m *Map) Sites() []uint32 {
	out := make([]uint32, 0, m.Count())
	for i, w := range m.bits {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, uint32(i*64+b))
			w &^= 1 << b
		}
	}
	return out
}

// FromSites rebuilds a map from its sparse form.
func FromSites(sites []uint32) *Map {
	m := &Map{}
	for _, s := range sites {
		m.Hit(s)
	}
	return m
}
