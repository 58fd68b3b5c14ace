package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns every child process and temporary directory a run
// creates, so that one cleanup call, reached on every exit path, kills
// and reaps the children and removes the directories.
type procs struct {
	bin  string // cgserver binary
	base string // parent of the run's temporary directories

	mu       sync.Mutex
	children map[*server]struct{}
	dirs     []string
	closed   bool

	cleaned sync.Once
}

func newProcs(bin, base string) *procs {
	return &procs{bin: bin, base: base, children: make(map[*server]struct{})}
}

// tempDir makes a fresh directory under base that cleanup removes.
func (p *procs) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(p.base, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(p.base, prefix)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		os.RemoveAll(d)
		return "", errors.New("run is shutting down")
	}
	p.dirs = append(p.dirs, d)
	return d, nil
}

// cleanup kills every live child, waits for each to exit and removes
// every temporary directory. It runs once; a concurrent or later call
// (the signal handler racing the normal exit path) waits until that one
// has finished.
func (p *procs) cleanup() { p.cleaned.Do(p.stopAll) }

func (p *procs) stopAll() {
	p.mu.Lock()
	p.closed = true
	kids := make([]*server, 0, len(p.children))
	for s := range p.children {
		kids = append(kids, s)
	}
	dirs := p.dirs
	p.mu.Unlock()
	for _, s := range kids {
		s.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// server is one running cgserver child.
type server struct {
	cmd  *exec.Cmd
	addr string        // bound address, read from its "listening" log line
	done chan struct{} // closed once the process has been reaped

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// listenTimeout bounds how long a child may take to recover its log and
// start listening.
const listenTimeout = 90 * time.Second

// start launches cgserver with args on an ephemeral loopback port and
// JSON logs, and returns once it has logged the address it bound.
func (p *procs) start(args ...string) (*server, error) {
	args = append(args, "-addr", "127.0.0.1:0", "-log-format", "json")
	cmd := exec.Command(p.bin, args...)
	// If this process dies without running cleanup, the kernel still
	// kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("run is shutting down")
	}
	if err := cmd.Start(); err != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("start cgserver: %w", err)
	}
	p.children[s] = struct{}{}
	p.mu.Unlock()

	bound := make(chan string, 1)
	go func() {
		s.readLog(stderr, bound)
		cmd.Wait()
		p.mu.Lock()
		delete(p.children, s)
		p.mu.Unlock()
		close(s.done)
	}()
	select {
	case s.addr = <-bound:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("cgserver %v exited before listening: %s", args, s.lastLog())
	case <-time.After(listenTimeout):
		s.kill()
		return nil, fmt.Errorf("cgserver %v did not listen within %v: %s", args, listenTimeout, s.lastLog())
	}
}

// readLog drains the child's JSON log until it closes, handing the
// address of the first "listening" record to bound.
func (s *server) readLog(r io.Reader, bound chan<- string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.tail = append(s.tail, line)
		if len(s.tail) > 8 {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
		if sent {
			continue
		}
		if addr, ok := listeningAddr(line); ok {
			bound <- addr
			sent = true
		}
	}
}

// listeningAddr extracts the bound address from cgserver's JSON
// "listening" log record.
func listeningAddr(line string) (string, bool) {
	var rec struct {
		Msg  string `json:"msg"`
		Addr string `json:"addr"`
	}
	if json.Unmarshal([]byte(line), &rec) != nil || rec.Msg != "listening" || rec.Addr == "" {
		return "", false
	}
	return rec.Addr, true
}

func (s *server) lastLog() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// kill sends SIGKILL and waits until the child has been reaped.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// cpuSeconds reads the child's user+system CPU time from
// /proc/<pid>/stat (in clock ticks of 1/100 s).
func (s *server) cpuSeconds() (float64, error) {
	return procCPUSeconds(s.cmd.Process.Pid)
}

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are positional.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / 100, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += uint64(info.Size())
		}
	}
	return n, nil
}
