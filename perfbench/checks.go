package main

import (
	"fmt"
	"math"
)

// Output checks. Each returns an error describing the first way the
// program's output disagrees with what the generator knows to be true;
// a failed check makes the run incorrect and counts as a failed
// operation.

// checkInserted: every distinct stream edge was reported new exactly
// once, and the graph holds exactly the distinct edges.
func checkInserted(added, edges, distinct uint64) error {
	if added != distinct || edges != distinct {
		return fmt.Errorf("%d inserts reported new and %d edges stored, want %d distinct", added, edges, distinct)
	}
	return nil
}

// checkProbes: present probes all hit and absent probes all miss. The
// probe sequence alternates present and absent, starting present.
func checkProbes(hits, misses, wrong, n uint64) error {
	if wrong != 0 || hits != (n+1)/2 || misses != n/2 {
		return fmt.Errorf("%d hits, %d misses, %d wrong answers over %d probes", hits, misses, wrong, n)
	}
	return nil
}

// checkAnalytics: BFS starts at its root, and PageRank gives every
// ranked node a finite positive score.
func checkAnalytics(ranks map[uint64]float64, order []uint64, root uint64) error {
	if len(order) == 0 || order[0] != root {
		return fmt.Errorf("BFS from %d visited %d nodes, not starting at the root", root, len(order))
	}
	if len(ranks) == 0 {
		return fmt.Errorf("PageRank ranked no nodes")
	}
	for u, r := range ranks {
		if !(r > 0) || math.IsInf(r, 0) {
			return fmt.Errorf("PageRank gave node %d score %v", u, r)
		}
	}
	return nil
}

// checkDeleted: deleting half the stream removed exactly the distinct
// edges of that half, and the rest remain.
func checkDeleted(deleted, want, edges, distinct uint64) error {
	if deleted != want || edges != distinct-want {
		return fmt.Errorf("deleted %d (want %d), %d edges left (want %d)", deleted, want, edges, distinct-want)
	}
	return nil
}

// checkServeReply checks one serve-stage reply against the command
// that produced it. minDegree is the preloaded out-degree of the
// scanned node, which no caller ever deletes from.
func checkServeReply(op serveOp, r reply, minDegree uint64) error {
	if err := r.err(); err != nil {
		return err
	}
	switch op.kind {
	case opQueryHit, opInsert, opDelete:
		return expectInt(r, 1)
	case opQueryMiss:
		return expectInt(r, 0)
	case opNeighbors:
		if r.kind != '*' || uint64(r.n) < minDegree {
			return fmt.Errorf("G.GETNEIGHBORS %d: %c%d, want an array of at least %d", op.u, r.kind, r.n, minDegree)
		}
	}
	return nil
}

// checkEdgeCount: the server holds exactly the edges its acks account
// for.
func checkEdgeCount(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s holds %d edges, acks account for %d", what, got, want)
	}
	return nil
}
