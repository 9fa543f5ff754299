package main

import (
	"io"
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/cover"
	"xmrobust/internal/dict"
	"xmrobust/internal/sparc"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// capabilities reports which optional interfaces v satisfies.
func targetCaps(v any) [3]bool {
	_, b := v.(target.BatchExecutor)
	_, p := v.(poolStatser)
	_, i := v.(injectSigner)
	return [3]bool{b, p, i}
}

func sourceCaps(v any) [3]bool {
	_, s := v.(strategist)
	_, f := v.(campaign.FeedbackSource)
	_, c := v.(io.Closer)
	return [3]bool{s, f, c}
}

func TestWrapTargetPreservesCapabilities(t *testing.T) {
	for _, spec := range []string{"sim", "inject:sim", "phantom", "remote:127.0.0.1:1"} {
		inner, err := target.New(spec, target.Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, server := range []bool{false, true} {
			got := targetCaps(wrapTarget(inner, func() *scope { return nil }, server))
			if want := targetCaps(inner); got != want {
				t.Errorf("%s (server %v): wrapper capabilities %v, target has %v", spec, server, got, want)
			}
		}
	}
}

// fakeTarget builds a target with exactly the capabilities in mask
// (batch, pool stats, injection signature).
type fakeTarget struct{ target.Target }

type fakeBatch struct{}

func (fakeBatch) ExecuteBatch(target.Slot, []testgen.Dataset, target.RunSpec) []target.Result {
	return nil
}

type fakePool struct{}

func (fakePool) PoolStats() sparc.PoolStats { return sparc.PoolStats{Allocated: 7} }

type fakeSig struct{}

func (fakeSig) InjectSignature() string { return "sig" }

func fakeWithCaps(mask int) target.Target {
	base := fakeTarget{&target.Phantom{}}
	b, p, i := mask&1 != 0, mask&2 != 0, mask&4 != 0
	switch {
	case b && p && i:
		return struct {
			fakeTarget
			fakeBatch
			fakePool
			fakeSig
		}{base, fakeBatch{}, fakePool{}, fakeSig{}}
	case b && p:
		return struct {
			fakeTarget
			fakeBatch
			fakePool
		}{base, fakeBatch{}, fakePool{}}
	case b && i:
		return struct {
			fakeTarget
			fakeBatch
			fakeSig
		}{base, fakeBatch{}, fakeSig{}}
	case p && i:
		return struct {
			fakeTarget
			fakePool
			fakeSig
		}{base, fakePool{}, fakeSig{}}
	case b:
		return struct {
			fakeTarget
			fakeBatch
		}{base, fakeBatch{}}
	case p:
		return struct {
			fakeTarget
			fakePool
		}{base, fakePool{}}
	case i:
		return struct {
			fakeTarget
			fakeSig
		}{base, fakeSig{}}
	}
	return base
}

func TestWrapTargetEveryCapabilityCombination(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		inner := fakeWithCaps(mask)
		w := wrapTarget(inner, func() *scope { return nil }, false)
		if got, want := targetCaps(w), targetCaps(inner); got != want {
			t.Errorf("mask %03b: wrapper capabilities %v, target has %v", mask, got, want)
		}
		if ps, ok := w.(poolStatser); ok && ps.PoolStats().Allocated != 7 {
			t.Errorf("mask %03b: PoolStats not forwarded", mask)
		}
		if is, ok := w.(injectSigner); ok && is.InjectSignature() != "sig" {
			t.Errorf("mask %03b: InjectSignature not forwarded", mask)
		}
	}
}

// fakeSource builds a source with exactly the capabilities in mask
// (strategy, feedback, close).
type fakeSource struct{ campaign.Source }

type fakeStrategy struct{}

func (fakeStrategy) Strategy() string { return "fake" }

type fakeFeedback struct{ got *[]int }

func (f fakeFeedback) Feedback(pos int, _ *cover.Map) { *f.got = append(*f.got, pos) }

type fakeCloser struct{ closed *bool }

func (c fakeCloser) Close() error { *c.closed = true; return nil }

func TestWrapSourcePreservesCapabilities(t *testing.T) {
	h, d := apispec.Default(), dict.Builtin()
	static, err := testgen.NewPlan("rand:10", h, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := testgen.NewPlan("feedback:10", h, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.(io.Closer).Close()
	for name, src := range map[string]campaign.Source{
		"static plan":   static,
		"feedback plan": fb,
		"dataset slice": campaign.DatasetSlice(testgen.Materialize(static)),
	} {
		if got, want := sourceCaps(wrapSource(src, nil)), sourceCaps(src); got != want {
			t.Errorf("%s: wrapper capabilities %v, source has %v", name, got, want)
		}
	}

	base := fakeSource{campaign.DatasetSlice(testgen.Materialize(static))}
	for mask := 0; mask < 8; mask++ {
		var (
			got    []int
			closed bool
		)
		s, f, c := mask&1 != 0, mask&2 != 0, mask&4 != 0
		var inner campaign.Source
		st, fd, cl := fakeStrategy{}, fakeFeedback{&got}, fakeCloser{&closed}
		switch {
		case s && f && c:
			inner = struct {
				fakeSource
				fakeStrategy
				fakeFeedback
				fakeCloser
			}{base, st, fd, cl}
		case s && f:
			inner = struct {
				fakeSource
				fakeStrategy
				fakeFeedback
			}{base, st, fd}
		case s && c:
			inner = struct {
				fakeSource
				fakeStrategy
				fakeCloser
			}{base, st, cl}
		case f && c:
			inner = struct {
				fakeSource
				fakeFeedback
				fakeCloser
			}{base, fd, cl}
		case s:
			inner = struct {
				fakeSource
				fakeStrategy
			}{base, st}
		case f:
			inner = struct {
				fakeSource
				fakeFeedback
			}{base, fd}
		case c:
			inner = struct {
				fakeSource
				fakeCloser
			}{base, cl}
		default:
			inner = base
		}
		w := wrapSource(inner, nil)
		if gotCaps, want := sourceCaps(w), sourceCaps(inner); gotCaps != want {
			t.Errorf("mask %03b: wrapper capabilities %v, source has %v", mask, gotCaps, want)
		}
		if fs, ok := w.(campaign.FeedbackSource); ok {
			fs.Feedback(3, nil)
			if len(got) != 1 || got[0] != 3 {
				t.Errorf("mask %03b: Feedback not forwarded", mask)
			}
		}
		if cc, ok := w.(io.Closer); ok {
			cc.Close()
			if !closed {
				t.Errorf("mask %03b: Close not forwarded", mask)
			}
		}
		if w.Len() != inner.Len() || w.Fingerprint() != inner.Fingerprint() || w.At(2).String() != inner.At(2).String() {
			t.Errorf("mask %03b: Len/Fingerprint/At not forwarded", mask)
		}
	}
}
