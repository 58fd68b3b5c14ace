// Command perfbench is the repository's end-to-end benchmark. One run
// takes a workload (a seeded input family), drives the library in
// process and the real cgserver binary as child processes through three
// stages — stream, serve and restart — checks every output, and prints
// one JSON object as its last line. See README.md in this directory for
// the workloads, the metrics and how to run it.
//
//	perfbench -cgserver <binary> --workload stackoverflow --seed 1 --seconds 55 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// bench is one run: its inputs, the children it owns, and what it has
// measured so far.
type bench struct {
	out   io.Writer // progress lines and the result
	in    *inputs
	procs *procs
	srv   *server  // the current round's preloaded serve server
	tr    *tracer  // nil unless traced
	load  loadPlan // the restart stage's bulk load, encoded once
	e2e   *report  // end-to-end metrics
	layer *report  // per-layer metrics, printed by traced runs
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run performs one benchmark run and returns the exit code: 0 when
// every output check passed, 1 when a check failed or a stage could
// not run, 2 on bad arguments.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed; the same seed replays the same inputs")
	seconds := fs.Int("seconds", 55, "how long the run measures; each round's serve stage runs for 1/40 of it")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	bin := fs.String("cgserver", "", "cgserver binary to run as the child server")
	tmp := fs.String("tmp", "", "directory for the run's temporary WAL directories (removed on exit)")
	if fs.Parse(args) != nil {
		return 2
	}

	w, err := workloadByName(*name)
	if err != nil || *bin == "" || *tmp == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -cgserver, -tmp, --workload <"+workloadNames()+">, --seconds >= 1 and --trace 0|1")
		return 2
	}

	b := &bench{out: stdout, procs: newProcs(*bin, *tmp), e2e: newReport(), layer: newReport()}
	if *trace == 1 {
		b.tr = &tracer{}
	}
	// Every exit path, a signal included, kills the children and
	// removes the temporary directories.
	defer b.procs.cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigs)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case s := <-sigs:
			fmt.Fprintf(os.Stderr, "perfbench: %v: stopping children\n", s)
			b.procs.cleanup()
			os.Exit(1)
		case <-done:
		}
	}()

	start := time.Now()
	if b.in, err = generate(w, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d: inputs generated in %.2f s (fingerprint %016x)\n",
		w.name, *seed, time.Since(start).Seconds(), b.in.fingerprint(serveCallers, 1000))

	if err := b.measure(time.Duration(*seconds) * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := b.e2e
	if b.tr != nil {
		if err := b.ladder(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: ladder:", err)
			return 1
		}
		// The traced end-to-end numbers, beside an untraced run's, give
		// the tracing overhead.
		for _, n := range b.e2e.names {
			m := b.e2e.metric(n)
			b.layer.add("traced."+n, m.Value, m.Unit)
		}
		b.layer.add("trace.span_ns", spanCost(), "ns")
		b.tr.write(os.Stderr)
		b.layer.ops(b.e2e.attempted, b.e2e.failed)
		b.layer.problems = append(b.layer.problems, b.e2e.problems...)
		out = b.layer
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, n := range out.names {
		m := out.metric(n)
		fmt.Fprintf(stdout, "%-32s %14.4f %-6s (median of %d)\n", n, m.Value, m.Unit, len(out.values[n]))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, out.metrics()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.correct() {
		return 1
	}
	return 0
}

// minRounds is the fewest rounds a run makes, however short its
// budget: every metric is a median over rounds, and the median of one
// or two samples is just a noisy sample.
const minRounds = 3

// serveSlices divides the run's budget into each round's serve time, so
// the serve stage gets about a fifth of the run.
const serveSlices = 40

// measure warms up, then runs rounds of stream, set-up, serve and
// restart until the budget is spent: a round starts only if one as long
// as the last still fits, so the samples of every metric spread evenly
// over the whole run and its median shrugs off a slow spell of the
// machine shorter than about half the run. The stream stage goes first
// so that no child process is alive while it runs.
func (b *bench) measure(budget time.Duration) error {
	start := time.Now()
	b.warmUp()
	serveFor := budget / serveSlices
	var last time.Duration
	for i := 0; i < minRounds || time.Since(start)+last <= budget; i++ {
		t := time.Now()
		steps := []struct {
			name string
			fn   func() error
		}{
			{"stream", func() error { b.streamRound(i == 0); return nil }},
			{"setup", b.setupRound},
			{"serve", func() error { return b.serveRound(serveFor) }},
			{"restart", b.restartRound},
		}
		for _, s := range steps {
			runtime.GC() // no stage pays for the previous one's garbage
			if err := s.fn(); err != nil {
				return fmt.Errorf("round %d %s: %w", i, s.name, err)
			}
		}
		last = time.Since(t)
		fmt.Fprintf(b.out, "round %d done in %.2f s\n", i, last.Seconds())
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}
