package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("median reordered its input: %v", in)
	}
}

// The expectations are Python's statistics.quantiles(data, n=4), the
// "exclusive" method.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{7, 1, 3, 9, 5}, 2, 8},
	} {
		q1, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTailPercentileRefusesThinTail(t *testing.T) {
	sample := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: order must not matter
		}
		return out
	}
	if _, err := tailPercentile(sample(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted; it has fewer than 10 samples beyond it")
	}
	pc, err := tailPercentile(sample(100), 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
	if pc.N != 100 || pc.Beyond != 10 || !near(pc.Value, 90.9) {
		t.Fatalf("p90 of 1..100 = %+v, want value 90.9 with 10 beyond", pc)
	}
	if _, err := tailPercentile(nil, 0.5); err == nil {
		t.Fatal("percentile of an empty sample accepted")
	}
	// Ties at the top leave nothing strictly beyond the percentile.
	flat := make([]float64, 200)
	if _, err := tailPercentile(flat, 0.9); err == nil {
		t.Fatal("p90 of a constant sample accepted with no sample beyond it")
	}
}

func TestMinSamplesFor(t *testing.T) {
	if got := minSamplesFor(0.9); got != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Fatalf("minSamplesFor(0.5) = %d, want 20", got)
	}
}

func TestStealFracFromProcStat(t *testing.T) {
	a, ok := parseCPUTicks("cpu  975759 0 175029 630500 1533 0 23233 29886 0 0")
	if !ok {
		t.Fatal("the cpu line did not parse")
	}
	b, _ := parseCPUTicks("cpu  975859 0 175079 630530 1533 0 23233 29906 5 0")
	if got, want := stealFrac(a, b), 20.0/200; got != want {
		t.Errorf("steal share %g, want %g", got, want)
	}
	for _, bad := range []string{"", "intr 1 2 3", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, ok := parseCPUTicks(bad); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}
