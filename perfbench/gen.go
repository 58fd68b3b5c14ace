package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"cuckoograph/internal/dataset"
	"cuckoograph/internal/hashutil"
)

// workload is one seeded input family. Every stage of a run draws its
// inputs from it: the in-process stream, the served graph and its
// traffic, and the graph the restart stage bulk-loads. The benchmark
// takes the seed; the program only ever sees the generated edges.
type workload struct {
	name    string
	dataset string // internal/dataset spec the streams are shaped after
	// streamScale is the scale divisor of the stream the in-process
	// stage inserts, queries and deletes, and the restart stage
	// bulk-loads through the server.
	streamScale uint64
	// serveScale is the scale divisor of the cache-resident graph the
	// serve stage preloads before its closed loop.
	serveScale uint64
}

var workloads = []workload{
	{name: "stackoverflow", dataset: "StackOverflow", streamScale: 48, serveScale: 1024},
	{name: "notredame", dataset: "NotreDame", streamScale: 2, serveScale: 32},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// absentBit marks a probe edge that can never be stored: generated node
// ids stay far below it, and the serve stage's fresh ids live under
// freshBit instead.
const (
	absentBit = uint64(1) << 62
	freshBit  = uint64(1) << 61
)

// inputs is everything a run feeds the program, generated from the seed
// before any timing starts.
type inputs struct {
	seed uint64

	// stream is inserted, probed and half deleted by the in-process
	// stage. load is the same edges in a seeded shuffle, which the
	// restart stage bulk-loads: the generator emits every distinct edge
	// before any duplicate, and the shuffle spreads the duplicates (which
	// the server applies but need not log) evenly over the load.
	stream []dataset.Edge
	load   []dataset.Edge
	// distinct is the number of distinct edges in stream; halfDeleted
	// the number of distinct edges in stream[:len(stream)/2], which is
	// exactly what deleting that half must remove.
	distinct    int
	halfDeleted int
	// root is a source node with an edge that survives the deletion of
	// the stream's first half: the analytics phases' BFS root.
	root uint64

	preload []dataset.Edge    // serve stage: distinct, cache-resident
	degree  map[uint64]uint64 // preload out-degree per source
}

func generate(w workload, seed uint64) (*inputs, error) {
	spec, ok := dataset.ByName(w.dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", w.dataset)
	}
	in := &inputs{seed: seed}
	in.stream = dataset.Generate(spec, w.streamScale, seed)
	in.distinct, in.halfDeleted, in.root = countDistinct(in.stream)
	in.load = append([]dataset.Edge(nil), in.stream...)
	rng := hashutil.NewRNG(seed ^ 0x5bd1e995)
	for i := len(in.load) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		in.load[i], in.load[j] = in.load[j], in.load[i]
	}
	in.preload = dataset.Dedup(dataset.Generate(spec, w.serveScale, seed^0x27d4eb2f))
	in.degree = make(map[uint64]uint64)
	for _, e := range in.preload {
		in.degree[e.U]++
	}
	return in, nil
}

// countDistinct returns the number of distinct edges in s and in its
// first half, and the source of the first edge of the second half that
// the first half does not hold.
func countDistinct(s []dataset.Edge) (all, firstHalf int, root uint64) {
	seen := make(map[dataset.Edge]struct{}, len(s))
	rooted := false
	for i, e := range s {
		if i == len(s)/2 {
			firstHalf = len(seen)
		}
		if _, dup := seen[e]; !dup && i >= len(s)/2 && !rooted {
			root, rooted = e.U, true
		}
		seen[e] = struct{}{}
	}
	return len(seen), firstHalf, root
}

// probe returns the i-th query of the in-process stage: even positions
// ask for the stream edge itself, odd ones for an edge perturbed out of
// the node universe, so exactly half the probes must miss.
func probe(e dataset.Edge, i int) (u, v uint64, present bool) {
	if i%2 == 0 {
		return e.U, e.V, true
	}
	return e.U, e.V | absentBit, false
}

// opKind is one command of the serve stage's traffic mix.
type opKind uint8

const (
	opQueryHit  opKind = iota // G.QUERY of a preloaded edge → 1
	opQueryMiss               // G.QUERY of an absent edge → 0
	opNeighbors               // G.GETNEIGHBORS of a preloaded source
	opInsert                  // G.INSERT of an edge no one has inserted → 1
	opDelete                  // G.DEL of this caller's own earlier insert → 1
)

func (k opKind) isWrite() bool { return k == opInsert || k == opDelete }

type serveOp struct {
	kind opKind
	u, v uint64
}

// mixGen yields one caller's serve traffic: 80% reads (40% present
// queries, 20% absent queries, 20% neighbour scans) and 20% writes
// (inserts of fresh edges, and deletes of the caller's own earlier
// inserts). The sequence depends only on the seed and the caller, never
// on replies or timing, so the same seed replays the same commands.
type mixGen struct {
	rng    *hashutil.RNG
	in     *inputs
	caller uint64
	fresh  uint64
	own    []serveOp // inserted by this caller and not yet deleted
}

func newMixGen(in *inputs, caller int) *mixGen {
	return &mixGen{rng: hashutil.NewRNG(in.seed*0x9e3779b97f4a7c15 + uint64(caller) + 1), in: in, caller: uint64(caller)}
}

func (g *mixGen) next() serveOp {
	r := g.rng.Intn(100)
	e := g.in.preload[g.rng.Intn(len(g.in.preload))]
	switch {
	case r < 40:
		return serveOp{kind: opQueryHit, u: e.U, v: e.V}
	case r < 60:
		return serveOp{kind: opQueryMiss, u: e.U, v: e.V | absentBit}
	case r < 80:
		return serveOp{kind: opNeighbors, u: e.U}
	case r < 90 || len(g.own) == 0:
		g.fresh++
		op := serveOp{kind: opInsert, u: e.U, v: freshBit | g.caller<<40 | g.fresh}
		g.own = append(g.own, op)
		return op
	default:
		i := g.rng.Intn(len(g.own))
		op := g.own[i]
		g.own[i] = g.own[len(g.own)-1]
		g.own = g.own[:len(g.own)-1]
		return serveOp{kind: opDelete, u: op.u, v: op.v}
	}
}

// fingerprint hashes every input a run feeds the program, plus the
// first n commands of each serve caller, so tests can pin that a seed
// determines the op stream.
func (in *inputs) fingerprint(callers, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, s := range [][]dataset.Edge{in.stream, in.load, in.preload} {
		put(uint64(len(s)))
		for _, e := range s {
			put(e.U)
			put(e.V)
		}
	}
	for c := 0; c < callers; c++ {
		g := newMixGen(in, c)
		for i := 0; i < n; i++ {
			op := g.next()
			put(uint64(op.kind))
			put(op.u)
			put(op.v)
		}
	}
	return h.Sum64()
}
