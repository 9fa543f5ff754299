package cover

import (
	"math/rand"
	"testing"
)

func TestHitCountHas(t *testing.T) {
	var m Map
	if !m.Empty() || m.Count() != 0 {
		t.Fatalf("zero map not empty")
	}
	sites := []uint32{0, 1, 63, 64, 65, NumSites - 1}
	for _, s := range sites {
		m.Hit(s)
	}
	m.Hit(1) // idempotent
	if m.Count() != len(sites) {
		t.Fatalf("Count = %d, want %d", m.Count(), len(sites))
	}
	for _, s := range sites {
		if !m.Has(s) {
			t.Errorf("Has(%d) = false", s)
		}
	}
	if m.Has(2) {
		t.Error("Has(2) = true for unhit site")
	}
	// Out-of-range sites wrap instead of panicking.
	m.Hit(NumSites + 2)
	if !m.Has(2) {
		t.Error("out-of-range Hit did not wrap")
	}
}

func TestMergeCountNew(t *testing.T) {
	var a, b Map
	a.Hit(10)
	a.Hit(20)
	b.Hit(20)
	b.Hit(30)
	b.Hit(40)
	if got := a.CountNew(&b); got != 2 {
		t.Fatalf("CountNew = %d, want 2", got)
	}
	if a.Count() != 2 {
		t.Fatalf("CountNew mutated the receiver")
	}
	if got := a.Merge(&b); got != 2 {
		t.Fatalf("Merge = %d, want 2", got)
	}
	if a.Count() != 4 {
		t.Fatalf("merged Count = %d, want 4", a.Count())
	}
	if got := a.Merge(&b); got != 0 {
		t.Fatalf("re-Merge = %d, want 0", got)
	}
}

func TestSignatureStable(t *testing.T) {
	var a, b, c Map
	for _, s := range []uint32{3, 99, 4097} {
		a.Hit(s)
	}
	for _, s := range []uint32{4097, 3, 99} { // order must not matter
		b.Hit(s)
	}
	c.Hit(3)
	if a.Signature() != b.Signature() {
		t.Error("equal edge sets hash differently")
	}
	if a.Signature() == c.Signature() {
		t.Error("different edge sets collide")
	}
	if (&Map{}).Signature() == a.Signature() {
		t.Error("empty map collides with non-empty")
	}
}

// byteWiseSignature is the reference definition of Signature: FNV-1a
// over every byte of the bitmap words, low byte first.
func byteWiseSignature(m *Map) uint64 {
	h := uint64(fnvOffset)
	for _, w := range m.bits {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// TestSignatureMatchesByteWiseFNV pins the word-skipping Signature to the
// byte-wise FNV-1a it replaced, on random maps of every density plus the
// empty and full extremes.
func TestSignatureMatchesByteWiseFNV(t *testing.T) {
	p8 := uint64(1)
	for i := 0; i < 8; i++ {
		p8 *= fnvPrime
	}
	if p8 != fnvPrime8 {
		t.Fatalf("fnvPrime8 = %d, want prime^8 mod 2^64 = %d", uint64(fnvPrime8), p8)
	}
	var full Map
	for s := uint32(0); s < NumSites; s++ {
		full.Hit(s)
	}
	maps := []*Map{{}, &full}
	rng := rand.New(rand.NewSource(1))
	for _, hits := range []int{1, 2, 10, 100, 1000, NumSites} {
		for i := 0; i < 20; i++ {
			m := &Map{}
			for j := 0; j < hits; j++ {
				m.Hit(uint32(rng.Intn(NumSites)))
			}
			maps = append(maps, m)
		}
	}
	for i, m := range maps {
		if got, want := m.Signature(), byteWiseSignature(m); got != want {
			t.Fatalf("map %d (%d sites): Signature = %#x, byte-wise FNV-1a = %#x", i, m.Count(), got, want)
		}
	}
}

func TestSitesRoundTrip(t *testing.T) {
	var m Map
	want := []uint32{0, 7, 64, 8191, NumSites - 1}
	for _, s := range want {
		m.Hit(s)
	}
	got := m.Sites()
	if len(got) != len(want) {
		t.Fatalf("Sites = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sites = %v, want %v (ascending)", got, want)
		}
	}
	back := FromSites(got)
	if back.Signature() != m.Signature() {
		t.Fatal("FromSites(Sites()) is not the identity")
	}
	back.Reset()
	if !back.Empty() {
		t.Fatal("Reset left covered sites")
	}
}

func BenchmarkHit(b *testing.B) {
	var m Map
	for i := 0; i < b.N; i++ {
		m.Hit(uint32(i))
	}
}

func BenchmarkMerge(b *testing.B) {
	var a, o Map
	for s := uint32(0); s < NumSites; s += 37 {
		o.Hit(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(&o)
	}
}
