package main

import (
	"fmt"
	"os"
	"time"

	"cuckoograph/internal/hashutil"
)

const (
	// loadSlices is how many consecutive slices the bulk load's
	// throughput is measured over; load_kops is their median.
	loadSlices = 8
	// sampleQueries is the size of the seeded G.QUERY sample each
	// recovered server must answer correctly.
	sampleQueries = 2000
	// catchupTimeout bounds one follower bootstrap.
	catchupTimeout = 60 * time.Second
)

// restartRound is the durability stage's share of a round. It
// bulk-loads the workload's shuffled stream into a fresh WAL-backed
// cgserver (default sync policy: always) through one pipelined
// G.MINSERT connection, issuing CHECKPOINT once midway; SIGKILLs the
// server and restarts it on its WAL directory, timed until the new
// process answers; then bootstraps a -replica-of follower, timed until
// it holds as many edges as the leader. The batch path, the WAL and
// checkpoint codecs, replay and replication bootstrap do the work. The
// leader must ack exactly the distinct edges, and after the restart
// both servers must hold exactly the acked edges.
func (b *bench) restartRound() error {
	in, r := b.in, b.e2e
	dir, err := b.procs.tempDir("restart-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	leader, err := b.procs.start("-wal-dir", dir)
	if err != nil {
		return err
	}
	defer func() { leader.kill() }()

	// Phase 1: bulk load.
	if b.load.reqs == nil {
		b.load = encodeLoad(in.load, len(in.load)/loadBatch/2)
	}
	c, err := dial(leader.addr)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := pipeline(c, b.load.reqs)
	load := time.Since(start)
	c.close()
	if err != nil {
		return fmt.Errorf("restart load: %w", err)
	}
	b.tr.span("restart.load", "").add(1, load)
	r.ops(res.commands, 0)
	rates := sliceRates(b.load.edges, start, res.replied, loadSlices)
	r.add("load_kops", median(rates), "kop/s")
	acked := res.inserted
	if err := checkEdgeCount("loaded leader", acked, uint64(in.distinct)); err != nil {
		r.ops(0, 1)
		r.fail("restart load: %v", err)
	}
	walBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.add("wal_bytes_per_edge", float64(walBytes)/float64(acked), "B/edge")

	// Phase 2: SIGKILL and restart.
	start = time.Now()
	leader.kill()
	if leader, err = b.procs.start("-wal-dir", dir); err != nil {
		return err
	}
	if err := ping(leader.addr); err != nil {
		return fmt.Errorf("restarted leader: %w", err)
	}
	recovery := time.Since(start)
	b.tr.span("restart.recovery", "").add(1, recovery)
	r.ops(1, 0)
	r.add("recovery_s", recovery.Seconds(), "s")
	cpu, err := leader.cpuSeconds()
	if err != nil {
		return err
	}
	b.layer.add("cgserver.recovery_cpu_s", cpu, "s")
	b.verifyServer("restarted leader", leader.addr, acked)

	// Phase 3: follower bootstrap.
	lc, err := dial(leader.addr)
	if err != nil {
		return err
	}
	leaderEdges, err := lc.infoField("graph", "edges")
	lc.close()
	if err != nil {
		return err
	}
	start = time.Now()
	follower, err := b.procs.start("-replica-of", leader.addr)
	if err != nil {
		return err
	}
	defer follower.kill()
	if err := waitEdges(follower.addr, leaderEdges, catchupTimeout); err != nil {
		r.ops(1, 1)
		r.fail("follower catch-up: %v", err)
		return nil
	}
	catchup := time.Since(start)
	b.tr.span("restart.catchup", "").add(1, catchup)
	r.ops(1, 0)
	r.add("catchup_s", catchup.Seconds(), "s")
	fc, err := dial(follower.addr)
	if err != nil {
		return err
	}
	snapBytes, err := fc.infoField("replication", "bytes_received")
	fc.close()
	if err != nil {
		return err
	}
	b.layer.add("redislike.snapshot_bytes", float64(snapBytes), "bytes")
	b.verifyServer("follower", follower.addr, acked)
	fmt.Fprintf(b.out, "restart: loaded %d edges (%d new) in %.2f s, slice rates %.0f kop/s, WAL dir %d bytes; recovery %.3f s (%.2f s CPU); catch-up %.3f s (%d bytes received)\n",
		len(in.load), acked, load.Seconds(), rates, walBytes, recovery.Seconds(), cpu, catchup.Seconds(), snapBytes)
	return nil
}

// sliceRates cuts a pipelined load into n consecutive slices of
// commands and returns each slice's throughput in thousands of edges
// per second, from the reply that ended the previous slice (or start)
// to the reply that ends it.
func sliceRates(edges []int, start time.Time, replied []time.Time, n int) []float64 {
	var rates []float64
	prev, from := start, 0
	for s := 1; s <= n; s++ {
		to := s * len(replied) / n
		if to == from {
			continue
		}
		sum := 0
		for _, e := range edges[from:to] {
			sum += e
		}
		end := replied[to-1]
		rates = append(rates, float64(sum)/end.Sub(prev).Seconds()/1e3)
		prev, from = end, to
	}
	return rates
}

// ping dials addr and expects +PONG.
func ping(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	rep, err := c.call("ping")
	if err != nil {
		return err
	}
	if rep.kind != '+' || rep.str != "PONG" {
		return fmt.Errorf("ping: %c%s", rep.kind, rep.str)
	}
	return nil
}

// waitEdges polls a follower until it holds want edges.
func waitEdges(addr string, want uint64, timeout time.Duration) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	deadline := time.Now().Add(timeout)
	for {
		got, err := c.infoField("graph", "edges")
		if err != nil {
			return err
		}
		if got == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("holds %d of %d edges after %v", got, want, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// verifyServer checks that a server holds exactly the acked edges and
// answers a seeded sample of G.QUERY correctly: loaded edges with 1,
// perturbed ones with 0.
func (b *bench) verifyServer(what, addr string, acked uint64) {
	r := b.e2e
	c, err := dial(addr)
	if err != nil {
		r.ops(1, 1)
		r.fail("%s: %v", what, err)
		return
	}
	defer c.close()
	edges, err := c.infoField("graph", "edges")
	if err == nil {
		err = checkEdgeCount(what, edges, acked)
	}
	r.ops(1, 0)
	if err != nil {
		r.ops(0, 1)
		r.fail("%v", err)
	}
	rng := hashutil.NewRNG(b.in.seed ^ 0x85ebca6b)
	var failed uint64
	var firstErr error
	var buf []byte
	for i := 0; i < sampleQueries; i++ {
		u, v, present := probe(b.in.load[rng.Intn(len(b.in.load))], i)
		buf = appendEdgeCmd(buf[:0], "g.query", u, v)
		rep, err := c.do(buf)
		want := int64(0)
		if present {
			want = 1
		}
		if err == nil {
			err = expectInt(rep, want)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("G.QUERY %d %d: %w", u, v, err)
			}
		}
	}
	r.ops(sampleQueries, failed)
	if firstErr != nil {
		r.fail("%s sample: %d of %d wrong, first: %v", what, failed, sampleQueries, firstErr)
	}
}
