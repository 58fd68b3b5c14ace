package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cuckoograph/internal/analytics"
	"cuckoograph/internal/core"
	"cuckoograph/internal/cuckoo"
	"cuckoograph/internal/dataset"
	"cuckoograph/internal/redislike"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// The ladder feeds the workload's own op streams through each layer's
// public functions, one layer at a time, and times the calls from
// outside: the in-process stream through a bare cuckoo.Chain, core,
// and sharded at 1 and P shards; the serve traffic through the WAL at
// each sync policy, the RESP codec, in-process dispatch and loopback
// TCP; the bulk load through the batch path, the WAL batch codec,
// replay, and checkpoint save and load. It runs only in traced runs and
// sets the per-layer metrics the end-to-end stages cannot.

const (
	// ladderServeOps is how many serve commands the codec, dispatch and
	// WAL rungs replay; ladderRTTOps how many go over loopback TCP.
	ladderServeOps = 100_000
	ladderRTTOps   = 20_000
	// ladderAlwaysOps caps the writes timed under SyncAlways, where each
	// one waits for its own fsync.
	ladderAlwaysOps = 3_000
	// ladderSyncs is how many WAL.Sync calls the fsync rung times: at
	// least 100/(1-0.99)·minBeyond/100 so p99 has minBeyond samples past it.
	ladderSyncs = 2_000
)

func (b *bench) ladder() error {
	rungs := []struct {
		name string
		fn   func() error
	}{
		{"engine", b.ladderEngine},
		{"serve", b.ladderServe},
		{"restart", b.ladderRestart},
	}
	for _, r := range rungs {
		runtime.GC()
		t := time.Now()
		if err := r.fn(); err != nil {
			return fmt.Errorf("%s rungs: %w", r.name, err)
		}
		fmt.Fprintf(b.out, "ladder %s done in %.2f s\n", r.name, time.Since(t).Seconds())
	}
	return nil
}

// timed runs fn, records it as n calls of span, and returns ns per call.
func timed(sp *span, n int, fn func()) float64 {
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.add(uint64(n), d)
	return float64(d) / float64(n)
}

// edgeKey packs an edge into one cuckoo key; generated node ids fit in
// 31 bits, so bit 63 marks a key that is never inserted.
func edgeKey(u, v uint64) uint64 { return u<<32 | v }

const absentKey = uint64(1) << 63

// ladderEngine runs the stream's insert, query and delete phases
// through each engine layer on its own.
func (b *bench) ladderEngine() error {
	in, tr := b.in, b.tr
	n, half := len(in.stream), len(in.stream)/2

	// A bare L-CHT-style chain keyed by the packed edge: the cuckoo
	// probe and kick cost with no engine above it. Leftovers from a
	// failed kick loop are re-inserted after growing the chain, as the
	// engine does when its denylist is full.
	keys := make([]uint64, n)
	for i, e := range in.stream {
		keys[i] = edgeKey(e.U, e.V)
	}
	c := cuckoo.NewChain[struct{}](2, cuckoo.Config{})
	var pending []uint64
	b.layer.add("cuckoo.insert_ns", timed(tr.span("cuckoo.Chain.Insert", "ladder.engine"), n, func() {
		for _, k := range keys {
			if c.Contains(k) {
				continue
			}
			pending = append(pending[:0], k)
			for len(pending) > 0 {
				k := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				lo, _ := c.Insert(k, struct{}{})
				if len(lo) > 0 {
					for _, e := range c.Grow() {
						pending = append(pending, e.Key)
					}
					for _, e := range lo {
						pending = append(pending, e.Key)
					}
				}
			}
		}
	}), "ns")
	var wrong int
	b.layer.add("cuckoo.lookup_ns", timed(tr.span("cuckoo.Chain.Contains", "ladder.engine"), n, func() {
		for i, k := range keys {
			if i%2 == 1 {
				k |= absentKey
			}
			if c.Contains(k) != (i%2 == 0) {
				wrong++
			}
		}
	}), "ns")
	b.ladderCheck("cuckoo.Chain lookups", n, wrong)
	c, keys = nil, nil

	type store interface {
		InsertEdge(u, v uint64) bool
		HasEdge(u, v uint64) bool
		DeleteEdge(u, v uint64) bool
	}
	rung := func(prefix string, g store) {
		parent := "ladder." + prefix
		runtime.GC()
		b.layer.add(prefix+".insert_ns", timed(tr.span(prefix+".InsertEdge", parent), n, func() {
			for _, e := range in.stream {
				g.InsertEdge(e.U, e.V)
			}
		}), "ns")
		var wrong int
		b.layer.add(prefix+".query_ns", timed(tr.span(prefix+".HasEdge", parent), n, func() {
			for i, e := range in.stream {
				u, v, present := probe(e, i)
				if g.HasEdge(u, v) != present {
					wrong++
				}
			}
		}), "ns")
		b.ladderCheck(prefix+" queries", n, wrong)
		b.layer.add(prefix+".delete_ns", timed(tr.span(prefix+".DeleteEdge", parent), half, func() {
			for _, e := range in.stream[:half] {
				g.DeleteEdge(e.U, e.V)
			}
		}), "ns")
	}
	rung("core", core.NewGraph(core.Config{}))
	rung("sharded.1", sharded.New(sharded.Config{Shards: 1}))
	pg := sharded.New(sharded.Config{})
	rung("sharded.p", pg)

	// The analytics phase, layer by layer, on the default-sharded graph
	// holding the whole stream.
	for _, e := range in.stream[:half] {
		pg.InsertEdge(e.U, e.V)
	}
	runtime.GC()
	workers := runtime.GOMAXPROCS(0)
	var view *sharded.View
	b.layer.add("sharded.snapshot_us", timed(tr.span("sharded.Snapshot", "ladder.analytics"), 1, func() {
		view = pg.Snapshot()
	})/1e3, "us")
	defer view.Release()
	b.layer.add("csr.build_ms", timed(tr.span("sharded.View.CSR", "ladder.analytics"), 1, func() {
		view.CSR()
	})/1e6, "ms")
	var ranks map[uint64]float64
	b.layer.add("analytics.pagerank_ms", timed(tr.span("analytics.ParallelPageRank", "ladder.analytics"), 1, func() {
		ranks = analytics.ParallelPageRank(view, pageRankIters, workers)
	})/1e6, "ms")
	root := in.root
	var order []uint64
	b.layer.add("analytics.bfs_ms", timed(tr.span("analytics.ParallelBFS", "ladder.analytics"), 1, func() {
		order = analytics.ParallelBFS(view, root, workers)
	})/1e6, "ms")
	if err := checkAnalytics(ranks, order, root); err != nil {
		b.ladderCheck("analytics: "+err.Error(), 1, 1)
	}
	return nil
}

// ladderCheck counts n ladder operations of which wrong gave a wrong
// answer; any wrong answer makes the run incorrect.
func (b *bench) ladderCheck(what string, n, wrong int) {
	b.e2e.ops(uint64(n), uint64(wrong))
	if wrong > 0 {
		b.e2e.fail("ladder %s: %d of %d wrong", what, wrong, n)
	}
}

// serveOps returns the first n commands of serve caller 0.
func (b *bench) serveOps(n int) []serveOp {
	g := newMixGen(b.in, 0)
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// encodeServeOp appends op as the RESP command the serve stage sends.
func encodeServeOp(dst []byte, op serveOp) []byte {
	switch op.kind {
	case opNeighbors:
		return appendNodeCmd(dst, "g.getneighbors", op.u)
	case opInsert:
		return appendEdgeCmd(dst, "g.insert", op.u, op.v)
	case opDelete:
		return appendEdgeCmd(dst, "g.del", op.u, op.v)
	}
	return appendEdgeCmd(dst, "g.query", op.u, op.v)
}

// ladderServe runs the serve traffic through the WAL, the codec, the
// dispatcher and loopback TCP.
func (b *bench) ladderServe() error {
	in, tr := b.in, b.tr
	ops := b.serveOps(ladderServeOps)
	var writes []serveOp
	for _, op := range ops {
		if op.kind.isWrite() {
			writes = append(writes, op)
		}
	}

	// A sharded graph plus a WAL, one writer, per sync policy.
	for _, pol := range []struct{ name, flag string }{{"none", "nosync"}, {"async", "async"}, {"always", "always"}} {
		policy, err := wal.ParseSyncPolicy(pol.flag)
		if err != nil {
			return err
		}
		dir, err := b.procs.tempDir("ladder-wal-")
		if err != nil {
			return err
		}
		w, err := wal.Open(dir, wal.Options{Sync: policy})
		if err != nil {
			return err
		}
		g := sharded.New(sharded.Config{})
		for _, e := range in.preload {
			g.InsertEdge(e.U, e.V)
		}
		g.SetWAL(w)
		ws := writes
		if pol.name == "always" {
			ws = ws[:min(len(ws), ladderAlwaysOps)]
		}
		var wrong int
		b.layer.add("wal.append_ns."+pol.name, timed(tr.span("sharded+wal."+pol.name, "ladder.wal"), len(ws), func() {
			for _, op := range ws {
				var ok bool
				if op.kind == opInsert {
					ok = g.InsertEdge(op.u, op.v)
				} else {
					ok = g.DeleteEdge(op.u, op.v)
				}
				if !ok {
					wrong++
				}
			}
		}), "ns")
		b.ladderCheck("wal "+pol.name+" writes", len(ws), wrong)
		if err := g.LogErr(); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}

	// fsync latency: one small append, then a timed Sync.
	dir, err := b.procs.tempDir("ladder-fsync-")
	if err != nil {
		return err
	}
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	var syncs latencies
	sp := tr.span("wal.WAL.Sync", "ladder.wal")
	for i := 0; i < ladderSyncs; i++ {
		op := writes[i%len(writes)]
		if err := w.Append(wal.OpInsert, op.u, op.v); err != nil {
			return err
		}
		t := time.Now()
		if err := w.Sync(); err != nil {
			return err
		}
		sp.since(t)
		syncs.add(time.Since(t))
	}
	if err := w.Close(); err != nil {
		return err
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"wal.fsync_p50_us", 0.50}, {"wal.fsync_p99_us", 0.99}} {
		v, _, ok := syncs.percentile(p.q)
		if !ok {
			return fmt.Errorf("%s", syncs.describe(p.name, p.q))
		}
		b.layer.add(p.name, v, "us")
		fmt.Fprintln(b.out, "ladder:", syncs.describe(p.name, p.q))
	}

	// The RESP codec: parse the encoded commands from a Conn, and
	// encode the replies the server would send.
	var wire []byte
	for _, op := range ops {
		wire = encodeServeOp(wire, op)
	}
	conn := resp.NewConn(&replayConn{r: bytes.NewReader(wire)})
	var parsed int
	b.layer.add("resp.parse_ns", timed(tr.span("resp.Conn.ReadRequest", "ladder.resp"), len(ops), func() {
		for range ops {
			if _, err := conn.ReadRequest(); err != nil {
				break
			}
			parsed++
		}
	}), "ns")
	b.ladderCheck("resp parse", len(ops), len(ops)-parsed)
	neighbors := make(map[uint64][]uint64)
	for _, e := range in.preload {
		neighbors[e.U] = append(neighbors[e.U], e.V)
	}
	var rw resp.Writer
	b.layer.add("resp.encode_ns", timed(tr.span("resp.Writer.Append", "ladder.resp"), len(ops), func() {
		for _, op := range ops {
			switch op.kind {
			case opQueryMiss:
				rw.AppendInt(0)
			case opNeighbors:
				nb := neighbors[op.u]
				rw.AppendArrayHeader(len(nb))
				for _, v := range nb {
					rw.AppendBulkUint(v)
				}
			default:
				rw.AppendInt(1)
			}
			rw.Reset()
		}
	}), "ns")

	// In-process dispatch through the command registry and handlers.
	srv, gm, err := newLadderServer(in.preload)
	if err != nil {
		return err
	}
	reqs := make([]resp.Value, len(ops))
	for i, op := range ops {
		reqs[i] = commandValue(op)
	}
	wrong := 0
	b.layer.add("redislike.dispatch_ns", timed(tr.span("redislike.Server.Dispatch", "ladder.redislike"), len(ops), func() {
		for i, req := range reqs {
			if !dispatchOK(ops[i], srv.Dispatch(req), in.degree[ops[i].u]) {
				wrong++
			}
		}
	}), "ns")
	b.ladderCheck("dispatch", len(ops), wrong)
	srv.Close()

	// Loopback TCP at depth 1, without and with a SyncAlways WAL.
	for _, withWAL := range []bool{false, true} {
		srv, gm, err = newLadderServer(in.preload)
		if err != nil {
			return err
		}
		name := "redislike.tcp_rtt_us"
		if withWAL {
			dir, err := b.procs.tempDir("ladder-tcp-wal-")
			if err != nil {
				return err
			}
			if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncAlways}); err != nil {
				return err
			}
			name = "redislike.tcp_rtt_wal_us"
		}
		us, err := b.loopbackRTT(srv, ops[:ladderRTTOps], name)
		if err != nil {
			return err
		}
		b.layer.add(name, us, "us")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			return err
		}
		if withWAL {
			if err := gm.CloseWAL(); err != nil {
				return err
			}
		}
	}
	return nil
}

// discardLogger keeps the in-process ladder servers quiet.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// newLadderServer returns an in-process server with the graph module
// loaded and preloaded with edges.
func newLadderServer(preload []dataset.Edge) (*redislike.Server, *redislike.GraphModule, error) {
	srv := redislike.NewServerWith(redislike.Config{Logger: discardLogger})
	gm, mod := redislike.NewGraphModule()
	if err := srv.LoadModule(mod); err != nil {
		return nil, nil, err
	}
	for _, e := range preload {
		gm.Graph().InsertEdge(e.U, e.V)
	}
	return srv, gm, nil
}

// loopbackRTT serves srv on a loopback port and returns the mean round
// trip of ops at depth 1, checking every reply.
func (b *bench) loopbackRTT(srv *redislike.Server, ops []serveOp, name string) (float64, error) {
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	c, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	var buf []byte
	wrong := 0
	ns := timed(b.tr.span(name, "ladder.tcp"), len(ops), func() {
		for _, op := range ops {
			buf = encodeServeOp(buf[:0], op)
			rep, err := c.do(buf)
			if err == nil {
				err = checkServeReply(op, rep, b.in.degree[op.u])
			}
			if err != nil {
				wrong++
			}
		}
	})
	b.ladderCheck(name, len(ops), wrong)
	return ns / 1e3, nil
}

// commandValue is op as the boxed command Server.Dispatch takes.
func commandValue(op serveOp) resp.Value {
	u, v := strconv.FormatUint(op.u, 10), strconv.FormatUint(op.v, 10)
	switch op.kind {
	case opNeighbors:
		return resp.Command("g.getneighbors", u)
	case opInsert:
		return resp.Command("g.insert", u, v)
	case opDelete:
		return resp.Command("g.del", u, v)
	}
	return resp.Command("g.query", u, v)
}

// dispatchOK checks a boxed reply like checkServeReply checks a wire
// reply.
func dispatchOK(op serveOp, r resp.Value, minDegree uint64) bool {
	switch op.kind {
	case opQueryMiss:
		return r.Type == ':' && r.Int == 0
	case opNeighbors:
		return r.Type == '*' && uint64(len(r.Array)) >= minDegree
	}
	return r.Type == ':' && r.Int == 1
}

// ladderRestart runs the bulk load through the batch path and the WAL
// batch codec, then times replay, checkpoint and snapshot load.
func (b *bench) ladderRestart() error {
	in, tr := b.in, b.tr
	var batches []core.Batch
	for i := 0; i < len(in.load); i += loadBatch {
		var bt core.Batch
		for _, e := range in.load[i:min(i+loadBatch, len(in.load))] {
			bt = bt.Insert(e.U, e.V)
		}
		batches = append(batches, bt)
	}
	n := len(in.load)

	cg := core.NewGraph(core.Config{})
	b.layer.add("core.batch_insert_ns", timed(tr.span("core.Graph.ApplyBatch", "ladder.batch"), n, func() {
		for _, bt := range batches {
			cg.ApplyBatch(bt)
		}
	}), "ns")
	b.ladderCheck("core batch load", 1, boolInt(cg.NumEdges() != uint64(in.distinct)))
	cg = nil

	// The WAL batch codec under the default policy (an fsync per batch).
	dir, err := b.procs.tempDir("ladder-batch-wal-")
	if err != nil {
		return err
	}
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	b.layer.add("wal.append_batch_ns", timed(tr.span("wal.WAL.AppendBatch", "ladder.batch"), n, func() {
		for _, bt := range batches {
			if err = w.AppendBatch(bt); err != nil {
				return
			}
		}
	}), "ns")
	if err != nil {
		return err
	}
	st := w.Stats()
	if err := w.Close(); err != nil {
		return err
	}
	b.layer.add("wal.bytes_per_op", float64(st.Bytes)/float64(st.Ops), "bytes")

	// Replay decodes every record and applies nothing.
	var records uint64
	var rs wal.ReplayStats
	b.layer.add("wal.replay_ns_per_record", timed(tr.span("wal.Replay", "ladder.recovery"), n, func() {
		rs, err = wal.Replay(dir, 0, func(wal.Op, uint64, uint64) error {
			records++
			return nil
		})
	}), "ns")
	if err != nil {
		return err
	}
	b.ladderCheck("replay", 1, boolInt(records != uint64(n) || rs.Records != uint64(n)))

	// Checkpoint a default-sharded graph to a file, then load it back.
	g := sharded.New(sharded.Config{})
	for _, bt := range batches {
		g.ApplyBatch(bt)
	}
	path := filepath.Join(dir, "ladder.snap")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	b.layer.add("sharded.checkpoint_s", timed(tr.span("sharded.Graph.Checkpoint", "ladder.recovery"), 1, func() {
		if err = g.Checkpoint(f, nil); err == nil {
			err = f.Sync()
		}
	})/1e9, "s")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	g = nil
	snap, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	runtime.GC()
	var loaded *sharded.Graph
	b.layer.add("sharded.load_s", timed(tr.span("sharded.Load", "ladder.recovery"), 1, func() {
		loaded, err = sharded.Load(bytes.NewReader(snap), sharded.Config{})
	})/1e9, "s")
	if err != nil {
		return err
	}
	b.ladderCheck("snapshot load", 1, boolInt(loaded.NumEdges() != uint64(in.distinct)))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replayConn is a net.Conn that reads a fixed byte stream, so the RESP
// parser can be timed without a socket.
type replayConn struct{ r io.Reader }

func (c *replayConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *replayConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *replayConn) Close() error                     { return nil }
func (c *replayConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *replayConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *replayConn) SetDeadline(time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }
