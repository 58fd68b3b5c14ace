package main

import (
	"fmt"
	"io"
	"time"
)

// tracer records spans around the benchmark's calls into each layer:
// how many calls a span name saw and how long they took, under a parent
// span name. It lives in memory and is written out when the run ends.
// Untraced runs pass a nil *tracer, whose hooks do nothing, so their
// end-to-end numbers carry no tracing cost.
type tracer struct {
	spans []*span
	index map[[2]string]*span
}

type span struct {
	name, parent string
	count        uint64
	total        time.Duration
}

// span returns the handle of span name under parent, registering it on
// first use. On a nil tracer it returns nil, and a nil handle records
// nothing.
func (t *tracer) span(name, parent string) *span {
	if t == nil {
		return nil
	}
	key := [2]string{name, parent}
	if s, ok := t.index[key]; ok {
		return s
	}
	if t.index == nil {
		t.index = make(map[[2]string]*span)
	}
	s := &span{name: name, parent: parent}
	t.spans = append(t.spans, s)
	t.index[key] = s
	return s
}

// since closes one call that started at start.
func (s *span) since(start time.Time) {
	if s != nil {
		s.count++
		s.total += time.Since(start)
	}
}

// add records n calls that took d in total.
func (s *span) add(n uint64, d time.Duration) {
	if s != nil {
		s.count += n
		s.total += d
	}
}

// write prints every span with its self time: its total minus the time
// its child spans cover.
func (t *tracer) write(w io.Writer) {
	if t == nil {
		return
	}
	children := make(map[string]time.Duration)
	for _, s := range t.spans {
		children[s.parent] += s.total
	}
	fmt.Fprintf(w, "%-34s %-22s %10s %12s %12s %10s\n", "span", "parent", "calls", "total_ms", "self_ms", "ns/call")
	for _, s := range t.spans {
		per := 0.0
		if s.count > 0 {
			per = float64(s.total) / float64(s.count)
		}
		fmt.Fprintf(w, "%-34s %-22s %10d %12.1f %12.1f %10.0f\n", s.name, s.parent, s.count,
			ms(s.total), ms(s.total-children[s.name]), per)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// spanCost measures what recording one span costs, so the traced run
// can state its own overhead per call.
func spanCost() float64 {
	const n = 1 << 20
	s := &span{}
	start := time.Now()
	for i := 0; i < n; i++ {
		s.since(time.Now())
	}
	return float64(time.Since(start)) / n
}
