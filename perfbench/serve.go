package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cuckoograph/internal/dataset"
)

// setupRound starts a cgserver on a fresh WAL directory (default sync
// policy: always) and preloads the serve graph through it: the set-up a
// round's serve stage runs on.
func (b *bench) setupRound() error {
	start := time.Now()
	dir, err := b.procs.tempDir("serve-wal-")
	if err != nil {
		return err
	}
	if b.srv, err = b.procs.start("-wal-dir", dir); err != nil {
		return err
	}
	c, err := dial(b.srv.addr)
	if err != nil {
		return err
	}
	res, err := pipeline(c, encodeLoad(b.in.preload, -1).reqs)
	c.close()
	if err != nil {
		return fmt.Errorf("setup preload: %w", err)
	}
	b.e2e.add("setup_s", time.Since(start).Seconds(), "s")
	b.e2e.ops(res.commands, 0)
	if err := checkEdgeCount("preloaded server", res.inserted, uint64(len(b.in.preload))); err != nil {
		b.e2e.ops(0, 1)
		b.e2e.fail("setup: %v", err)
	}
	return nil
}

// serveCallers is the number of closed-loop connections, one per CPU of
// the reference machine.
const serveCallers = 2

// callerResult is one connection's share of the closed loop.
type callerResult struct {
	reads, writes     latencies
	ops, failed       uint64
	inserted, deleted uint64 // acked
	byKind            [opDelete + 1]time.Duration
	countByKind       [opDelete + 1]uint64
	firstErr          error
}

var kindName = [...]string{"G.QUERY.hit", "G.QUERY.miss", "G.GETNEIGHBORS", "G.INSERT", "G.DEL"}

// serveRound is the serving stage's share of a round: serveCallers
// connections each run a closed loop at depth 1 against the round's
// preloaded cgserver, sending the next command only after the previous
// reply, for d; then the server is stopped. Syscalls, RESP, dispatch
// and the WAL's fsync dominate here.
func (b *bench) serveRound(d time.Duration) error {
	r := b.e2e
	defer b.srv.kill()
	ctl, err := dial(b.srv.addr)
	if err != nil {
		return err
	}
	defer ctl.close()
	ops0, err1 := ctl.infoField("wal", "ops")
	syncs0, err2 := ctl.infoField("wal", "syncs")
	cpu0, err3 := b.srv.cpuSeconds()
	if err := errors.Join(err1, err2, err3); err != nil {
		return err
	}

	results := make([]callerResult, serveCallers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.serveCaller(i, start.Add(d), &results[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all callerResult
	for i := range results {
		c := &results[i]
		all.reads.us = append(all.reads.us, c.reads.us...)
		all.writes.us = append(all.writes.us, c.writes.us...)
		all.ops += c.ops
		all.failed += c.failed
		all.inserted += c.inserted
		all.deleted += c.deleted
		for k := range c.byKind {
			b.tr.span(kindName[k], "serve.caller").add(c.countByKind[k], c.byKind[k])
		}
		b.tr.span("serve.caller", "").add(1, elapsed)
		if c.firstErr != nil {
			r.fail("serve caller %d: %v", i, c.firstErr)
		}
	}
	r.ops(all.ops, all.failed)

	cpu1, err3 := b.srv.cpuSeconds()
	ops1, err1 := ctl.infoField("wal", "ops")
	syncs1, err2 := ctl.infoField("wal", "syncs")
	edges, err4 := ctl.infoField("graph", "edges")
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return err
	}
	r.ops(1, 0)
	if err := checkEdgeCount("served graph", edges, uint64(len(b.in.preload))+all.inserted-all.deleted); err != nil {
		r.ops(0, 1)
		r.fail("serve: %v", err)
	}

	// Every percentile must have minBeyond samples past it.
	r.add("serve_kops", float64(all.ops)/elapsed.Seconds()/1e3, "kop/s")
	for _, p := range []struct {
		name string
		l    *latencies
		q    float64
	}{{"read_p50_us", &all.reads, 0.50}, {"read_p99_us", &all.reads, 0.99}, {"write_p50_us", &all.writes, 0.50}} {
		v, _, ok := p.l.percentile(p.q)
		if !ok {
			r.fail("serve: %s", p.l.describe(p.name, p.q))
		}
		r.add(p.name, v, "us")
	}
	b.layer.add("wal.ops_per_sync", float64(ops1-ops0)/float64(max(syncs1-syncs0, 1)), "ratio")
	b.layer.add("cgserver.cpu_us_per_op", (cpu1-cpu0)*1e6/float64(all.ops), "us")
	fmt.Fprintf(b.out, "serve: %.1f kop/s over %.2f s, %d acked inserts, %d acked deletes; %s, %s, %s, %s\n",
		float64(all.ops)/elapsed.Seconds()/1e3, elapsed.Seconds(), all.inserted, all.deleted,
		all.reads.describe("read_p50_us", 0.50), all.reads.describe("read_p99_us", 0.99),
		all.writes.describe("write_p50_us", 0.50), all.writes.describe("write_p99_us", 0.99))
	return nil
}

// serveCaller runs one closed-loop connection until deadline.
func (b *bench) serveCaller(i int, deadline time.Time, res *callerResult) {
	c, err := dial(b.srv.addr)
	if err != nil {
		res.firstErr = err
		res.failed++
		return
	}
	defer c.close()
	gen := newMixGen(b.in, i)
	var buf []byte
	for time.Now().Before(deadline) {
		op := gen.next()
		buf = encodeServeOp(buf[:0], op)
		t := time.Now()
		rep, err := c.do(buf)
		lat := time.Since(t)
		res.ops++
		res.byKind[op.kind] += lat
		res.countByKind[op.kind]++
		if err == nil {
			err = checkServeReply(op, rep, b.in.degree[op.u])
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			if rep.kind == 0 { // the connection itself failed
				return
			}
			continue
		}
		if op.kind.isWrite() {
			res.writes.add(lat)
		} else {
			res.reads.add(lat)
		}
		switch op.kind {
		case opInsert:
			res.inserted++
		case opDelete:
			res.deleted++
		}
	}
}

// loadBatch is the number of edge pairs per G.MINSERT, and loadDepth
// the number of commands kept in flight on the one load connection.
const (
	loadBatch = 512
	loadDepth = 16
)

type loadResult struct {
	commands uint64      // commands acked without error
	inserted uint64      // sum of G.MINSERT replies: edges new to the graph
	replied  []time.Time // when each command's reply arrived
}

// loadPlan is a bulk load encoded as commands, with the number of edges
// each carries.
type loadPlan struct {
	reqs  [][]byte
	edges []int
}

// encodeLoad encodes edges as G.MINSERT commands of loadBatch pairs.
// If checkpointAt is a batch index, a CHECKPOINT command follows that
// batch.
func encodeLoad(edges []dataset.Edge, checkpointAt int) loadPlan {
	var p loadPlan
	for i := 0; i < len(edges); i += loadBatch {
		part := edges[i:min(i+loadBatch, len(edges))]
		req := appendArrayHeader(nil, 1+2*len(part))
		req = appendBulk(req, "g.minsert")
		for _, e := range part {
			req = appendBulkUint(req, e.U)
			req = appendBulkUint(req, e.V)
		}
		p.reqs = append(p.reqs, req)
		p.edges = append(p.edges, len(part))
		if i/loadBatch == checkpointAt {
			p.reqs = append(p.reqs, appendCmd(nil, "checkpoint"))
			p.edges = append(p.edges, 0)
		}
	}
	return p
}

// pipeline sends reqs over one connection, keeping up to loadDepth
// commands in flight, and reads their replies in order. An error reply
// ends the load.
func pipeline(c *client, reqs [][]byte) (loadResult, error) {
	stop := make(chan struct{})
	slots := make(chan struct{}, loadDepth) // bounds the commands in flight
	werr := make(chan error, 1)
	go func() {
		for _, req := range reqs {
			select {
			case slots <- struct{}{}:
			case <-stop:
				werr <- nil
				return
			}
			c.nc.SetWriteDeadline(time.Now().Add(replyTimeout))
			if _, err := c.nc.Write(req); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()

	res := loadResult{replied: make([]time.Time, 0, len(reqs))}
	var err error
	for range reqs {
		c.nc.SetReadDeadline(time.Now().Add(replyTimeout))
		var rep reply
		if rep, err = c.read(); err == nil {
			err = rep.err()
		}
		if err != nil {
			c.close() // unblocks a writer stuck on a full socket
			break
		}
		res.replied = append(res.replied, time.Now())
		<-slots
		res.commands++
		if rep.kind == ':' {
			res.inserted += uint64(rep.n)
		}
	}
	close(stop)
	if werr := <-werr; err == nil {
		err = werr
	}
	return res, err
}
