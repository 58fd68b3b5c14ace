package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: with fewer, the "p99" of a short run is just its few
// slowest outliers.
const minBeyond = 10

// latencies collects per-operation samples in microseconds.
type latencies struct{ us []float64 }

func (l *latencies) add(d time.Duration) { l.us = append(l.us, float64(d)/1e3) }

// percentile returns the q-quantile (0 < q < 1) of the samples by
// nearest rank, with the number of samples beyond it. ok is false when
// fewer than minBeyond samples lie beyond it.
func (l *latencies) percentile(q float64) (v float64, beyond int, ok bool) {
	n := len(l.us)
	if n == 0 {
		return 0, 0, false
	}
	if !sort.Float64sAreSorted(l.us) {
		sort.Float64s(l.us)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	beyond = n - 1 - idx
	return l.us[idx], beyond, beyond >= minBeyond
}

// describe renders a percentile with the sample counts behind it, the
// form every printed percentile takes.
func (l *latencies) describe(name string, q float64) string {
	v, beyond, ok := l.percentile(q)
	if !ok {
		return fmt.Sprintf("%s=unsupported (n=%d, beyond=%d < %d)", name, len(l.us), beyond, minBeyond)
	}
	return fmt.Sprintf("%s=%.2f (n=%d, beyond=%d)", name, v, len(l.us), beyond)
}

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metric samples in first-seen order and its
// operation counts; failed operations and broken checks make the run
// incorrect. A metric sampled more than once reports its median.
type report struct {
	names     []string
	units     map[string]string
	values    map[string][]float64
	attempted uint64
	failed    uint64
	problems  []string
}

func newReport() *report {
	return &report{units: make(map[string]string), values: make(map[string][]float64)}
}

// add records one sample of a metric.
func (r *report) add(name string, v float64, unit string) {
	if _, seen := r.units[name]; !seen {
		r.names = append(r.names, name)
		r.units[name] = unit
	}
	r.values[name] = append(r.values[name], v)
}

// metric returns the median of a metric's samples.
func (r *report) metric(name string) metric {
	return metric{Value: median(r.values[name]), Unit: r.units[name]}
}

func (r *report) metrics() map[string]metric {
	out := make(map[string]metric, len(r.names))
	for _, n := range r.names {
		out[n] = r.metric(n)
	}
	return out
}

// ops counts attempted operations and the ones that failed: an error
// reply, a timeout or a wrong answer.
func (r *report) ops(attempted, failed uint64) {
	r.attempted += attempted
	r.failed += failed
}

// fail records a broken output check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }
