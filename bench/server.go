package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pathhist/internal/metrics"
	"pathhist/internal/ttserve"
)

// layout locates the benchmark's module and the one directory it writes to.
// Everything the benchmark leaves behind — the built ttserve, the go build
// cache run.sh points there, per-run data directories — lives under
// <checkout>/.bench_build, which .gitignore names.
type layout struct {
	module string // directory holding the benchmark's go.mod
	build  string // <checkout>/.bench_build
}

// layoutAt returns the layout for the benchmark's module directory, given
// relative to the working directory: "bench" under run.sh, "." under go test.
func layoutAt(module string) (layout, error) {
	mod, err := filepath.Abs(module)
	if err != nil {
		return layout{}, err
	}
	return layout{module: mod, build: filepath.Join(filepath.Dir(mod), ".bench_build")}, nil
}

// buildServer compiles the real cmd/ttserve from the surrounding checkout.
func (l layout) buildServer(ctx context.Context) (string, error) {
	bin := filepath.Join(l.build, "ttserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "pathhist/cmd/ttserve")
	cmd.Dir = l.module
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build pathhist/cmd/ttserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running ttserve child.
type server struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:<port>"
	logs *tailBuffer
	done chan struct{} // closed once the stderr reader has drained
}

// tailBuffer keeps the last lines of the child's log for failure reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 40 {
		t.lines = t.lines[len(t.lines)-40:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

var listenLine = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// startServer spawns ttserve on a free loopback port (parsed from its
// "listening on" line) and returns once /readyz answers 200. The child dies
// with the benchmark: stop kills it on every return path, the context's
// deadline kills it on the wall-clock cap, and Pdeathsig covers a benchmark
// that is itself killed.
func startServer(ctx context.Context, bin, dataDir string, extra ...string) (*server, error) {
	args := append([]string{"-data", dataDir, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ttserve: %w", err)
	}
	s := &server{cmd: cmd, logs: &tailBuffer{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.logs.add(line)
			if m := listenLine.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("ttserve exited before listening:\n%s", s.logs)
		}
		s.base = "http://" + a
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			s.stop()
			return nil, fmt.Errorf("ttserve exited during recovery:\n%s", s.logs)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop SIGKILLs the child and waits until it and its log reader have ended.
// It is safe to call more than once.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
}

// procSample is what /proc says about the child right now.
type procSample struct {
	cpuSeconds float64 // utime + stime
	peakRSSMiB float64 // VmHWM
	threads    int
}

// userHz is the unit of /proc/<pid>/stat times; Linux fixes it at 100 for
// user space on every architecture Go supports.
const userHz = 100

func (s *server) proc() (procSample, error) {
	var ps procSample
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, so the 12th and 13th after it.
	rest := string(stat)
	rest = rest[strings.LastIndexByte(rest, ')')+1:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("unparsable /proc/%s/stat times", pid)
	}
	ps.cpuSeconds = (ut + st) / userHz
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "VmHWM:":
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return ps, fmt.Errorf("unparsable VmHWM %q", f[1])
			}
			ps.peakRSSMiB = kb / 1024
		case "Threads:":
			ps.threads, _ = strconv.Atoi(f[1])
		}
	}
	if ps.peakRSSMiB == 0 {
		return ps, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
	}
	return ps, nil
}

// hostCPU is the first line of /proc/stat: the jiffies all CPUs of this
// guest have spent so far, and how many of them the hypervisor gave to
// someone else while a CPU here had work to do.
type hostCPU struct{ total, stolen float64 }

func readHostCPU() hostCPU {
	var h hostCPU
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user.
	for i, v := range f[1:9] {
		n, _ := strconv.ParseFloat(v, 64)
		h.total += n
		if i == 7 {
			h.stolen = n
		}
	}
	return h
}

// stealShare is the share of the host's CPU time between two readings that
// was stolen; 0 where /proc/stat does not say.
func stealShare(a, b hostCPU) float64 { return ratio(b.stolen-a.stolen, b.total-a.total) }

// resetPeakRSS sets the child's VmHWM back to its current resident size
// (clear_refs 5, Linux 4.0 and later) and reports whether the kernel let it.
func (s *server) resetPeakRSS() bool {
	return os.WriteFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "clear_refs"), []byte("5"), 0) == nil
}

// selfCPUSeconds is the benchmark process's own user + system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// serverStats is /statsz in either of ttserve's two shapes, folded to the
// counters the benchmark reads: the sharded front reports one Stats per
// shard, which sum.
type serverStats struct {
	trajectories                 int
	partitions                   int
	indexBytes                   int
	fullHits, fullMisses         int64
	subHits, subMisses           int64
	purges                       int64
	compactions                  int64
	walAppends                   int64
	walFsyncMs                   float64
	dispatches, hedged, hedgeWin int64
	partials                     int64
}

func (s *server) stats() (serverStats, error) {
	var raw struct {
		ttserve.Stats
		Counters   metrics.ServerCounterValues `json:"counters"`
		ShardStats []ttserve.Stats             `json:"shard_stats"`
	}
	resp, err := http.Get(s.base + "/statsz")
	if err != nil {
		return serverStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serverStats{}, fmt.Errorf("/statsz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return serverStats{}, fmt.Errorf("/statsz: %w", err)
	}
	out := serverStats{
		trajectories: raw.Trajectories,
		dispatches:   raw.Counters.ShardDispatches,
		hedged:       raw.Counters.HedgedDispatches,
		hedgeWin:     raw.Counters.HedgeWins,
		partials:     raw.Counters.PartialResponses,
	}
	parts := raw.ShardStats
	if len(parts) == 0 {
		parts = []ttserve.Stats{raw.Stats}
	}
	for _, st := range parts {
		out.partitions += st.Partitions
		out.indexBytes += st.IndexBytes
		out.fullHits += st.FullCacheHits
		out.fullMisses += st.FullCacheMisses
		out.subHits += st.CacheHits
		out.subMisses += st.CacheMisses
		out.purges += st.CachePurges + st.FullCachePurges
		out.compactions += st.Compactions
		out.walAppends += st.WALAppends
		out.walFsyncMs += st.WALFsyncMsTotal
	}
	return out, nil
}
