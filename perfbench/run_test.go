package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// These tests run whole benchmark runs against a real cgserver built
// from this checkout, on a tiny workload so that a run takes seconds.

var cgserverBin string

var tinyWorkload = workload{name: "tiny", dataset: "NotreDame", streamScale: 512, serveScale: 2048}

func TestMain(m *testing.M) {
	workloads = append(workloads, tinyWorkload)
	// Re-executed by TestSignalStopsChildren: be the benchmark.
	if args := os.Getenv("PERFBENCH_CHILD_ARGS"); args != "" {
		os.Exit(run(strings.Fields(args), os.Stdout))
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cgserverBin = filepath.Join(dir, "cgserver")
	if out, err := exec.Command("go", "build", "-o", cgserverBin, "cuckoograph/cmd/cgserver").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cgserver: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type result struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]metric
}

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// benchmarkSpec reads the metric lists of the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// leftovers lists what a finished run left behind under tmp: entries in
// the directory, and live processes whose command line mentions it.
func leftovers(t *testing.T, tmp string) []string {
	t.Helper()
	var found []string
	ents, _ := os.ReadDir(tmp)
	for _, e := range ents {
		found = append(found, "file "+e.Name())
	}
	pids, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range pids {
		cmd, err := os.ReadFile(p)
		if err == nil && bytes.Contains(cmd, []byte(tmp)) {
			found = append(found, "process "+p)
		}
	}
	return found
}

func tinyArgs(bin, tmp string, trace int) []string {
	return []string{"-cgserver", bin, "-tmp", tmp, "--workload", "tiny", "--seed", "5", "--seconds", "6", "--trace", fmt.Sprint(trace)}
}

// TestTinyRunMatchesBenchmarkJSON checks that a passing run prints
// exactly the metrics BENCHMARK.json declares, with their units, in
// both modes, and leaves nothing behind.
func TestTinyRunMatchesBenchmarkJSON(t *testing.T) {
	e2e, layer := benchmarkSpec(t)
	for trace, want := range []map[string]string{e2e, layer} {
		tmp := t.TempDir()
		var out bytes.Buffer
		if code := run(tinyArgs(cgserverBin, tmp, trace), &out); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s", trace, code, out.String())
		}
		r := lastResult(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, r.Correct, r.Attempted, r.Failed)
		}
		for name, unit := range want {
			m, ok := r.Metrics[name]
			if !ok {
				t.Errorf("trace %d: metric %s missing", trace, name)
			} else if m.Unit != unit {
				t.Errorf("trace %d: %s unit %q, BENCHMARK.json says %q", trace, name, m.Unit, unit)
			}
		}
		for name := range r.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("trace %d: metric %s is not in BENCHMARK.json", trace, name)
			}
		}
		if left := leftovers(t, tmp); len(left) > 0 {
			t.Errorf("trace %d: run left %v", trace, left)
		}
	}
}

// TestForgetfulServerFailsRun runs the benchmark against a cgserver
// that starts every time on a fresh WAL directory, so a restart loses
// every acked edge: the restart checks must fail the run, and the
// failed run must still clean up.
func TestForgetfulServerFailsRun(t *testing.T) {
	dir := t.TempDir()
	wrapper := filepath.Join(dir, "forgetful")
	script := "#!/usr/bin/env bash\na=()\nwhile [ $# -gt 0 ]; do\n" +
		"  if [ \"$1\" = -wal-dir ]; then a+=(-wal-dir \"$2/lost-$$\"); shift 2; continue; fi\n" +
		"  a+=(\"$1\"); shift\ndone\nexec " + cgserverBin + " \"${a[@]}\"\n"
	if err := os.WriteFile(wrapper, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	var out bytes.Buffer
	if code := run(tinyArgs(wrapper, tmp, 0), &out); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out.String())
	}
	r := lastResult(t, out.String())
	if r.Correct || r.Failed == 0 {
		t.Errorf("lost edges passed: correct=%v failed=%d", r.Correct, r.Failed)
	}
	if left := leftovers(t, tmp); len(left) > 0 {
		t.Errorf("failed run left %v", left)
	}
	if left := leftovers(t, cgserverBin); len(left) > 0 {
		t.Errorf("failed run left %v", left)
	}
}

// TestSignalStopsChildren sends SIGTERM to a run in its serve stage,
// while cgserver children are up, and expects it to exit nonzero having
// killed them and removed its temporary directories.
func TestSignalStopsChildren(t *testing.T) {
	tmp := t.TempDir()
	args := tinyArgs(cgserverBin, tmp, 0)
	args[len(args)-3] = "60" // --seconds: a long serve stage
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "PERFBENCH_CHILD_ARGS="+strings.Join(args, " "))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "stream:") { // set-up starts a serve server next
			break
		}
	}
	time.Sleep(500 * time.Millisecond) // into the set-up or serve stage
	if left := leftovers(t, tmp); len(left) == 0 {
		t.Fatal("no children or directories to clean up at the signal")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	}
	var exit *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("signalled run ended with %v, want exit 1", err)
	}
	if left := leftovers(t, tmp); len(left) > 0 {
		t.Errorf("signalled run left %v", left)
	}
}

// TestListeningAddr reads the bound address from cgserver's JSON log.
func TestListeningAddr(t *testing.T) {
	addr, ok := listeningAddr(`{"time":"x","level":"INFO","msg":"listening","addr":"127.0.0.1:40123","commands":30}`)
	if !ok || addr != "127.0.0.1:40123" {
		t.Errorf("got %q %v", addr, ok)
	}
	for _, line := range []string{`{"msg":"recovered","addr":"x"}`, `not json`, `{"msg":"listening"}`} {
		if _, ok := listeningAddr(line); ok {
			t.Errorf("%q taken as a listening record", line)
		}
	}
}
