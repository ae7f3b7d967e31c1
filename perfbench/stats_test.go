package main

import (
	"testing"

	"repro/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 50, 50, true},    // rank ceil(50) = 50
		{101, 50, 51, true},    // rank ceil(50.5) = 51
		{100, 90, 90, true},    // 10 samples beyond rank 90
		{100, 91, 0, false},    // only 9 beyond rank 91
		{1000, 99, 990, true},  // exactly 10 beyond
		{999, 99, 0, false},    // rank 990, 9 beyond
		{2000, 99, 1980, true}, // 20 beyond
		{10, 50, 0, false},     // 5 beyond
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%g of 1..%d = %v, %v; want %v, %v", c.p, c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}

func TestTally(t *testing.T) {
	var a, b tally
	for i := 0; i < 8; i++ {
		a.add(i != 3)
	}
	b.add(false)
	b.add(true)
	a.merge(b)
	if a.attempted != 10 || a.failed != 2 || a.okRatio() != 0.8 {
		t.Errorf("tally = %+v ok %.2f, want 10 attempted, 2 failed, 0.8", a, a.okRatio())
	}
}

func TestHistMergeQuantile(t *testing.T) {
	var a, b obs.Histogram
	for v := int64(1); v <= 10; v++ {
		a.Record(v) // exact buckets below 16
	}
	for i := 0; i < 10; i++ {
		b.Record(3)
	}
	m := mergeHist(a.Snapshot(), b.Snapshot())
	if m.Count != 20 {
		t.Fatalf("merged count %d, want 20", m.Count)
	}
	// 20 samples: 1, 2, eleven 3s, 4..10; the 10th is a 3.
	if got := histQuantile(m, 0.5); got != 3 {
		t.Errorf("merged p50 = %v, want 3", got)
	}
}

// TestHistWindow checks that the samples recorded between two snapshots
// of one histogram are their difference.
func TestHistWindow(t *testing.T) {
	var h obs.Histogram
	for i := 0; i < 100; i++ {
		h.Record(2) // before the window: would pull p50 down to 2
	}
	before := h.Snapshot()
	for v := int64(5); v <= 15; v++ {
		h.Record(v)
	}
	w := subHist(h.Snapshot(), before)
	if w.Count != 11 {
		t.Fatalf("window count %d, want 11", w.Count)
	}
	for _, b := range w.Buckets {
		if b.Low <= 2 && 2 <= b.High {
			t.Errorf("bucket %+v from before the window is left", b)
		}
	}
	// 11 samples 5..15; the 6th is 10.
	if got := histQuantile(w, 0.5); got != 10 {
		t.Errorf("window p50 = %v, want 10", got)
	}
}

func TestQuietHalf(t *testing.T) {
	wins := []window{{steal: 0.3}, {steal: 0.0}, {steal: 0.1}, {steal: 0.0, secs: 1}, {steal: 0.2}}
	q := quietHalf(wins, func(w window) float64 { return w.steal })
	if len(q) != 3 || q[0].secs != 0 || q[1].secs != 1 || q[2].steal != 0.1 {
		t.Errorf("quietHalf = %+v, want the three least-stolen windows, ties in order", q)
	}
}
