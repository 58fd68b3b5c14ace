package main

import (
	"io"
	"testing"

	"cuckoograph/internal/dataset"
)

// Every output check must be able to fail: each case feeds it one wrong
// output and expects an error, beside the right output, which passes.

func TestCheckInserted(t *testing.T) {
	if err := checkInserted(10, 10, 10); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][3]uint64{{9, 10, 10}, {10, 11, 10}, {11, 11, 10}} {
		if checkInserted(c[0], c[1], c[2]) == nil {
			t.Errorf("checkInserted%v passed", c)
		}
	}
}

func TestCheckProbes(t *testing.T) {
	if err := checkProbes(5, 5, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := checkProbes(6, 5, 0, 11); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][4]uint64{{5, 4, 1, 10}, {6, 4, 0, 10}, {4, 6, 0, 10}} {
		if checkProbes(c[0], c[1], c[2], c[3]) == nil {
			t.Errorf("checkProbes%v passed", c)
		}
	}
}

func TestCheckAnalytics(t *testing.T) {
	ranks := map[uint64]float64{1: 0.5, 2: 0.5}
	if err := checkAnalytics(ranks, []uint64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if checkAnalytics(ranks, []uint64{2, 1}, 1) == nil {
		t.Error("BFS not starting at its root passed")
	}
	if checkAnalytics(ranks, nil, 1) == nil {
		t.Error("empty BFS passed")
	}
	if checkAnalytics(nil, []uint64{1}, 1) == nil {
		t.Error("empty PageRank passed")
	}
	if checkAnalytics(map[uint64]float64{1: 0}, []uint64{1}, 1) == nil {
		t.Error("zero PageRank score passed")
	}
}

func TestCheckDeleted(t *testing.T) {
	if err := checkDeleted(4, 4, 6, 10); err != nil {
		t.Fatal(err)
	}
	if checkDeleted(3, 4, 7, 10) == nil {
		t.Error("short delete count passed")
	}
	if checkDeleted(4, 4, 7, 10) == nil {
		t.Error("edge left behind passed")
	}
}

func TestCheckServeReply(t *testing.T) {
	ok := []struct {
		op serveOp
		r  reply
	}{
		{serveOp{kind: opQueryHit}, reply{kind: ':', n: 1}},
		{serveOp{kind: opQueryMiss}, reply{kind: ':', n: 0}},
		{serveOp{kind: opInsert}, reply{kind: ':', n: 1}},
		{serveOp{kind: opDelete}, reply{kind: ':', n: 1}},
		{serveOp{kind: opNeighbors}, reply{kind: '*', n: 3}},
	}
	for _, c := range ok {
		if err := checkServeReply(c.op, c.r, 3); err != nil {
			t.Errorf("%+v %+v: %v", c.op, c.r, err)
		}
	}
	bad := []struct {
		op serveOp
		r  reply
	}{
		{serveOp{kind: opQueryHit}, reply{kind: ':', n: 0}},
		{serveOp{kind: opQueryMiss}, reply{kind: ':', n: 1}},
		{serveOp{kind: opInsert}, reply{kind: ':', n: 0}},
		{serveOp{kind: opDelete}, reply{kind: ':', n: 0}},
		{serveOp{kind: opNeighbors}, reply{kind: '*', n: 2}},
		{serveOp{kind: opQueryHit}, reply{kind: '-', str: "ERR boom"}},
		{serveOp{kind: opNeighbors}, reply{kind: '-', str: "WALERR disk"}},
	}
	for _, c := range bad {
		if checkServeReply(c.op, c.r, 3) == nil {
			t.Errorf("%+v %+v passed", c.op, c.r)
		}
	}
}

func TestCheckEdgeCount(t *testing.T) {
	if err := checkEdgeCount("x", 7, 7); err != nil {
		t.Fatal(err)
	}
	if checkEdgeCount("x", 6, 7) == nil {
		t.Error("missing edge passed")
	}
}

// TestStreamStageCatchesWrongCounts runs the real in-process stage on a
// small stream whose expected counts are off by one, and expects the
// run to be marked incorrect with failed operations.
func TestStreamStageCatchesWrongCounts(t *testing.T) {
	w := workload{name: "check", dataset: "StackOverflow", streamScale: 8192, serveScale: 8192}
	for _, sabotage := range []func(*inputs){
		func(in *inputs) { in.distinct++ },
		func(in *inputs) { in.halfDeleted-- },
	} {
		in, err := generate(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{out: io.Discard, in: in, e2e: newReport(), layer: newReport()}
		b.streamRound(true)
		if !b.e2e.correct() {
			t.Fatalf("unsabotaged stage failed: %v", b.e2e.problems)
		}
		sabotage(in)
		b = &bench{out: io.Discard, in: in, e2e: newReport(), layer: newReport()}
		b.streamRound(true)
		if b.e2e.correct() || b.e2e.failed == 0 {
			t.Errorf("sabotaged expectation passed: failed=%d problems=%v", b.e2e.failed, b.e2e.problems)
		}
	}
}

func TestProbeAlternatesPresentAndAbsent(t *testing.T) {
	e := dataset.Edge{U: 3, V: 4}
	if u, v, present := probe(e, 0); !present || u != 3 || v != 4 {
		t.Errorf("probe 0 = %d %d %v", u, v, present)
	}
	if u, v, present := probe(e, 1); present || u != 3 || v == 4 {
		t.Errorf("probe 1 = %d %d %v", u, v, present)
	}
}
