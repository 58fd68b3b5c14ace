package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"cuckoograph"
)

// pageRankIters is the power-method rounds of the analytics phase.
const pageRankIters = 20

// streamRound is the in-process stage's share of a round: one pass of
// the workload's stream through a fresh default cuckoograph.SafeGraph,
// driven by one writer goroutine. Only the engine layers (cuckoo, core,
// sharded, csr, analytics) do work here; the WAL, the RESP codec and
// the server are never touched.
func (b *bench) streamRound(first bool) {
	p := b.streamPass(first)
	r := b.e2e
	r.add("insert_mops", p.insert, "Mop/s")
	r.add("query_mops", p.query, "Mop/s")
	r.add("analytics_s", p.analytics, "s")
	r.add("delete_mops", p.delete, "Mop/s")
	b.layer.add("cuckoograph.gc_cpu_share", p.gcShare, "ratio")
	fmt.Fprintf(b.out, "stream: %d ops (%d distinct edges): insert %.3f, query %.3f, delete %.3f Mop/s, analytics %.3f s\n",
		len(b.in.stream), b.in.distinct, p.insert, p.query, p.delete, p.analytics)
}

// warmUp inserts the stream once, untimed, into a graph it then drops,
// so that the first timed pass does not pay for growing the heap from
// the operating system or for cold code and caches.
func (b *bench) warmUp() {
	g := cuckoograph.NewSafe()
	for _, e := range b.in.stream {
		g.InsertEdge(e.U, e.V)
	}
}

// passResult is one pass's rates (Mop/s), analytics time (s) and the
// GC's share of CPU time during the insert phase.
type passResult struct {
	insert, query, delete, analytics, gcShare float64
}

// streamPass inserts the whole stream into a fresh graph, probes every
// position (half perturbed into absent edges), runs PageRank and BFS
// on a snapshot, deletes the first half of the stream and runs the
// analytics again, checking each phase's output. Each phase starts from a collected heap so that
// garbage from the previous one does not bill it. The first pass also
// reports the graph's memory and structure counters.
func (b *bench) streamPass(first bool) passResult {
	in, r, tr := b.in, b.e2e, b.tr
	var res passResult
	g := cuckoograph.NewSafe()

	// Phase 1: insert, duplicates included.
	runtime.GC()
	sp := tr.span("cuckoograph.InsertEdge", "stream.insert")
	gc0 := readGCShare()
	start := time.Now()
	var added uint64
	for _, e := range in.stream {
		var ok bool
		if sp != nil {
			t := time.Now()
			ok = g.InsertEdge(e.U, e.V)
			sp.since(t)
		} else {
			ok = g.InsertEdge(e.U, e.V)
		}
		if ok {
			added++
		}
	}
	d := time.Since(start)
	res.gcShare = gc0.shareSince()
	tr.span("stream.insert", "").add(1, d)
	res.insert = float64(len(in.stream)) / d.Seconds() / 1e6
	r.ops(uint64(len(in.stream)), 0)
	if err := checkInserted(added, g.NumEdges(), uint64(in.distinct)); err != nil {
		r.ops(0, 1)
		r.fail("stream insert: %v", err)
	}
	if first {
		r.add("bytes_per_edge", float64(g.MemoryUsage())/float64(g.NumEdges()), "B/edge")
		st := g.Stats()
		b.layer.add("cuckoo.kicks_per_insert", float64(st.LCHTKicks+st.SCHTKicks)/float64(added), "ratio")
		b.layer.add("cuckoo.transformations", float64(st.Transformations), "count")
		b.layer.add("cuckoo.denylist_len", float64(st.LDLLen+st.SDLLen), "count")
		b.layer.add("cuckoo.load_rate", st.LCHTLoadRate, "ratio")
	}

	// Phase 2: probe every stream position, half perturbed to absent.
	runtime.GC()
	sp = tr.span("cuckoograph.HasEdge", "stream.query")
	var hits, misses, wrong uint64
	start = time.Now()
	for i, e := range in.stream {
		u, v, present := probe(e, i)
		var got bool
		if sp != nil {
			t := time.Now()
			got = g.HasEdge(u, v)
			sp.since(t)
		} else {
			got = g.HasEdge(u, v)
		}
		switch {
		case got != present:
			wrong++
		case got:
			hits++
		default:
			misses++
		}
	}
	d = time.Since(start)
	tr.span("stream.query", "").add(1, d)
	res.query = float64(len(in.stream)) / d.Seconds() / 1e6
	r.ops(uint64(len(in.stream)), wrong)
	if err := checkProbes(hits, misses, wrong, uint64(len(in.stream))); err != nil {
		r.fail("stream query: %v", err)
	}

	// Phase 3: analytics on the whole graph.
	res.analytics = b.analyticsPhase(g)

	// Phase 4: delete the first half of the stream.
	runtime.GC()
	half := in.stream[:len(in.stream)/2]
	sp = tr.span("cuckoograph.DeleteEdge", "stream.delete")
	var deleted uint64
	start = time.Now()
	for _, e := range half {
		var ok bool
		if sp != nil {
			t := time.Now()
			ok = g.DeleteEdge(e.U, e.V)
			sp.since(t)
		} else {
			ok = g.DeleteEdge(e.U, e.V)
		}
		if ok {
			deleted++
		}
	}
	d = time.Since(start)
	tr.span("stream.delete", "").add(1, d)
	res.delete = float64(len(half)) / d.Seconds() / 1e6
	r.ops(uint64(len(half)), 0)
	if err := checkDeleted(deleted, uint64(in.halfDeleted), g.NumEdges(), uint64(in.distinct)); err != nil {
		r.ops(0, 1)
		r.fail("stream delete: %v", err)
	}

	// Phase 5: analytics again on the half graph left; the analytics
	// sample is both runs together.
	res.analytics += b.analyticsPhase(g)
	return res
}

// analyticsPhase freezes a snapshot of g and runs PageRank and BFS over
// it (the snapshot compiles its CSR on first use), checking both, and
// returns the seconds it took.
func (b *bench) analyticsPhase(g *cuckoograph.SafeGraph) float64 {
	runtime.GC()
	root := b.in.root
	start := time.Now()
	view := g.Snapshot()
	ranks := view.PageRank(pageRankIters)
	order := view.BFS(root)
	view.Release()
	d := time.Since(start)
	b.tr.span("stream.analytics", "").add(1, d)
	b.e2e.ops(2, 0)
	if err := checkAnalytics(ranks, order, root); err != nil {
		b.e2e.ops(0, 1)
		b.e2e.fail("stream analytics: %v", err)
	}
	return d.Seconds()
}

// gcShare samples the runtime's cumulative GC and total CPU time.
type gcShare struct{ gc, total float64 }

func readGCShare() gcShare {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcShare{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// shareSince is the share of CPU time spent in GC since g was taken.
func (g gcShare) shareSince() float64 {
	now := readGCShare()
	if now.total <= g.total {
		return 0
	}
	return (now.gc - g.gc) / (now.total - g.total)
}
