package main

import (
	"strings"
	"testing"
	"time"
)

func samples(n int) *latencies {
	l := &latencies{}
	for i := n; i >= 1; i-- { // unsorted on purpose
		l.add(time.Duration(i) * time.Microsecond)
	}
	return l
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{n: 100, q: 0.99, want: 99, beyond: 1, ok: false},
		{n: 999, q: 0.99, want: 990, beyond: 9, ok: false},
		{n: 1000, q: 0.99, want: 990, beyond: 10, ok: true},
		{n: 19, q: 0.50, want: 10, beyond: 9, ok: false},
		{n: 21, q: 0.50, want: 11, beyond: 10, ok: true},
		{n: 0, q: 0.50, beyond: 0, ok: false},
	}
	for _, c := range cases {
		v, beyond, ok := samples(c.n).percentile(c.q)
		if ok != c.ok || beyond != c.beyond || (c.n > 0 && v != c.want) {
			t.Errorf("n=%d q=%v: got (%v, %d, %v), want (%v, %d, %v)", c.n, c.q, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
}

func TestDescribePrintsSampleCounts(t *testing.T) {
	got := samples(1000).describe("p99_us", 0.99)
	if got != "p99_us=990.00 (n=1000, beyond=10)" {
		t.Errorf("describe = %q", got)
	}
	got = samples(100).describe("p99_us", 0.99)
	if !strings.Contains(got, "unsupported") || !strings.Contains(got, "n=100") || !strings.Contains(got, "beyond=1 ") {
		t.Errorf("an unsupported percentile must say so with its counts: %q", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestSliceRates(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	// Four commands of 1000 edges, one CHECKPOINT (0 edges) between.
	edges := []int{1000, 1000, 0, 1000, 1000}
	replied := []time.Time{at(1), at(2), at(10), at(11), at(12)}
	got := sliceRates(edges, start, replied, 2)
	// Slice 1: commands 0-1 by 2 ms; slice 2: commands 2-4 from 2 ms to 12 ms.
	want := []float64{1000, 200}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("sliceRates = %v, want %v", got, want)
	}
}
