package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pathhist"
	"pathhist/internal/workload"
)

// writeDataset materialises a ttgen-style dataset directory holding the
// first part of the store, returning the remainder as an extend batch.
func writeDataset(t *testing.T, dir string) (*pathhist.Graph, *pathhist.Store, *pathhist.Store) {
	t.Helper()
	ds := workload.BuildDataset(workload.SmallConfig())
	ds.Store.SortByStart()
	cuts := ds.Store.QuiescentCuts()
	if len(cuts) == 0 {
		t.Fatal("no quiescent cuts")
	}
	cut := cuts[len(cuts)/2]
	base, batch := ds.Store.Slice(0, cut), ds.Store.Slice(cut, ds.Store.Len())
	write := func(name string, fn func(f *os.File) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("network.bin", func(f *os.File) error { _, err := ds.G.WriteTo(f); return err })
	write("trajectories.bin", func(f *os.File) error { _, err := base.WriteTo(f); return err })
	return ds.G, base, batch
}

// TestLifecycleSIGTERM is the acceptance scenario: under live query +
// ingest load, SIGTERM drains in-flight requests (an accepted /extend
// completes and is acknowledged), leaks no goroutines, and the final
// snapshot captures exactly the acknowledged state.
func TestLifecycleSIGTERM(t *testing.T) {
	dataDir, snapDir := t.TempDir(), t.TempDir()
	g, base, batch := writeDataset(t, dataDir)

	baseline := runtime.NumGoroutine()
	started := make(chan string, 1)
	done := make(chan error, 1)
	cfg := config{
		data:         dataDir,
		addr:         "127.0.0.1:0",
		enableExtend: true,
		maxExtendMiB: 64,
		autoCompact:  0,
		snapshotDir:  snapDir,
		shards:       1,
		started:      started,
	}
	go func() { done <- run(context.Background(), cfg) }()
	var addr string
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server did not start")
	}
	url := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}

	// Keep the server under query load while the signal lands.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	qpath := base.Get(0).Path()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(fmt.Sprintf("%s/query?path=%s&beta=5", url, pathParam(qpath)))
				if err != nil {
					return // listener closed during shutdown: expected
				}
				resp.Body.Close()
			}
		}()
	}

	// Fire the ingest and the signal concurrently — the batch is either
	// acknowledged (200, must survive into the snapshot) or refused whole.
	var buf bytes.Buffer
	if _, err := batch.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	extendDone := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := client.Post(url+"/extend", "application/octet-stream", bytes.NewReader(buf.Bytes()))
		if err != nil {
			extendDone <- 0 // connection refused before acceptance
			return
		}
		defer resp.Body.Close()
		extendDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the extend reach the server
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not shut down")
	}
	close(stop)
	wg.Wait()
	extendStatus := <-extendDone
	client.CloseIdleConnections()

	// The final snapshot must exist, load cleanly, and hold exactly the
	// acknowledged trajectory count.
	snapPath, err := pathhist.FindLatestSnapshot(snapDir)
	if err != nil || snapPath == "" {
		t.Fatalf("no final snapshot in %s: %v", snapDir, err)
	}
	restored, err := pathhist.LoadSnapshotFile(g, snapPath, pathhist.Options{Partition: pathhist.ByZone})
	if err != nil {
		t.Fatalf("final snapshot does not load: %v", err)
	}
	want := base.Len()
	if extendStatus == http.StatusOK {
		want += batch.Len()
	} else if extendStatus != 0 {
		t.Fatalf("extend status = %d", extendStatus)
	}
	if restored.Trajectories() != want {
		t.Fatalf("snapshot holds %d trajectories, want %d (extend status %d)",
			restored.Trajectories(), want, extendStatus)
	}

	// No goroutine leak: everything run started must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Fatalf("goroutines: %d, baseline %d", n, baseline)
	}
}

// TestRunRejectsFlagCombinations: flag combinations that would silently do
// something other than what was asked are refused with a one-line error
// before the listener binds — the address is taken, so a bind would have
// failed with a different error.
func TestRunRejectsFlagCombinations(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for name, tc := range map[string]struct {
		cfg  config
		want string
	}{
		"no shards":               {config{shards: 0}, "-shards 0"},
		"load-snapshot, sharded":  {config{shards: 2, loadSnapshot: "snapshot.snt"}, "-load-snapshot"},
		"replicas, single engine": {config{shards: 1, replicasPerShard: 2}, "-replicas-per-shard"},
	} {
		tc.cfg.addr, tc.cfg.data = ln.Addr().String(), t.TempDir()
		err := run(context.Background(), tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: run = %v, want a one-line error naming %s", name, err, tc.want)
		}
	}
}

// TestLoadSnapshotFallback: an unusable -load-snapshot file must not stop
// the service — it logs and falls back to a from-scratch build.
func TestLoadSnapshotFallback(t *testing.T) {
	dataDir := t.TempDir()
	g, base, _ := writeDataset(t, dataDir)

	bad := filepath.Join(t.TempDir(), "corrupt.snt")
	if err := os.WriteFile(bad, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := pathhist.Options{Partition: pathhist.ByZone}
	eng, source, err := buildOrRestore(g, func() (*pathhist.Store, error) { return base, nil }, opts, bad, false)
	if err != nil {
		t.Fatalf("fallback build failed: %v", err)
	}
	if source != "built from trajectories.bin" {
		t.Fatalf("source = %q", source)
	}
	if eng.Trajectories() != base.Len() {
		t.Fatalf("fallback engine holds %d trajectories, want %d", eng.Trajectories(), base.Len())
	}

	// And a good snapshot restores without touching the build path.
	snap := filepath.Join(t.TempDir(), pathhist.SnapshotFileName)
	if _, err := eng.SnapshotFile(snap); err != nil {
		t.Fatal(err)
	}
	restored, source, err := buildOrRestore(g, func() (*pathhist.Store, error) { return base, nil }, opts, snap, false)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Trajectories() != base.Len() || source == "built from trajectories.bin" {
		t.Fatalf("restore: %d trajectories, source %q", restored.Trajectories(), source)
	}
}

// TestHelperServeProcess is not a test: it is the subprocess body for the
// SIGKILL crash-recovery test below, re-execing the test binary so a real
// kill -9 can land on a real process. Activated only via TTSERVE_HELPER.
func TestHelperServeProcess(t *testing.T) {
	if os.Getenv("TTSERVE_HELPER") != "1" {
		t.Skip("helper process body; driven by TestCrashRecoverySIGKILL")
	}
	started := make(chan string, 1)
	go func() {
		addr := <-started
		tmp := os.Getenv("TTSERVE_ADDRFILE") + ".tmp"
		if err := os.WriteFile(tmp, []byte(addr), 0o644); err == nil {
			_ = os.Rename(tmp, os.Getenv("TTSERVE_ADDRFILE"))
		}
	}()
	shards := 1
	if s := os.Getenv("TTSERVE_SHARDS"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &shards); err != nil {
			t.Fatalf("TTSERVE_SHARDS=%q: %v", s, err)
		}
	}
	cfg := config{
		data:          os.Getenv("TTSERVE_DATA"),
		addr:          "127.0.0.1:0",
		enableExtend:  true,
		maxExtendMiB:  64,
		autoCompact:   0,
		snapshotDir:   os.Getenv("TTSERVE_SNAP"),
		snapshotKeep:  3,
		shards:        shards,
		mmapSnapshots: os.Getenv("TTSERVE_MMAP") == "1",
		started:       started,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("helper run: %v", err)
	}
}

// TestCrashRecoverySIGKILL is the durability acceptance scenario from
// DESIGN.md §11: batches acknowledged over HTTP survive a kill -9 — no
// drain, no final snapshot, nothing but the write-ahead log — and after a
// restart the service reports ready only once it again holds every
// acknowledged trajectory, answering queries exactly as before the crash.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess lifecycle test")
	}
	dataDir, snapDir := t.TempDir(), t.TempDir()
	_, base, batch := writeDataset(t, dataDir)
	addrFile := filepath.Join(t.TempDir(), "addr")
	client := &http.Client{Timeout: 30 * time.Second}

	start := func() *exec.Cmd {
		t.Helper()
		os.Remove(addrFile)
		cmd := exec.Command(os.Args[0], "-test.run=TestHelperServeProcess")
		cmd.Env = append(os.Environ(),
			"TTSERVE_HELPER=1",
			"TTSERVE_DATA="+dataDir,
			"TTSERVE_SNAP="+snapDir,
			"TTSERVE_ADDRFILE="+addrFile,
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	waitReady := func() string {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				url := "http://" + string(b)
				if resp, err := client.Get(url + "/readyz"); err == nil {
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusOK {
						return url
					}
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatal("server never became ready")
		return ""
	}

	cmd := start()
	url := waitReady()

	// Acknowledge a batch: once the 200 lands, the bytes are fsynced in the
	// log and the crash below must not lose them.
	var buf bytes.Buffer
	if _, err := batch.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/extend", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extend status = %d", resp.StatusCode)
	}
	queryURL := fmt.Sprintf("%s/query?path=%s&beta=5", url, pathParam(base.Get(0).Path()))
	preKill, err := client.Get(queryURL)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.NewDecoder(preKill.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	preKill.Body.Close()
	client.CloseIdleConnections()

	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no handler runs
		t.Fatal(err)
	}
	_ = cmd.Wait()

	cmd2 := start()
	defer func() {
		_ = cmd2.Process.Signal(syscall.SIGTERM)
		_ = cmd2.Wait()
	}()
	url2 := waitReady()

	// Every acknowledged trajectory is back.
	sresp, err := client.Get(url2 + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Trajectories int  `json:"trajectories"`
		Ready        bool `json:"ready"`
		WALEnabled   bool `json:"wal_enabled"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if !st.Ready || !st.WALEnabled {
		t.Fatalf("restarted statsz: %+v", st)
	}
	if wantTrajs := base.Len() + batch.Len(); st.Trajectories != wantTrajs {
		t.Fatalf("restarted server holds %d trajectories, want %d (acknowledged)", st.Trajectories, wantTrajs)
	}

	// And answers queries exactly as the pre-crash server did.
	postKill, err := client.Get(fmt.Sprintf("%s/query?path=%s&beta=5", url2, pathParam(base.Get(0).Path())))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.NewDecoder(postKill.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	postKill.Body.Close()
	client.CloseIdleConnections()
	for _, k := range []string{"mean_seconds", "p05_seconds", "p50_seconds", "p95_seconds"} {
		if got[k] != want[k] {
			t.Fatalf("post-crash %s = %v, pre-crash %v", k, got[k], want[k])
		}
	}
}

// TestMappedCrashRecoverySIGKILL is the zero-copy variant of the crash
// scenario (DESIGN.md §15): the server restores by memory-mapping the
// snapshot file read-only, serves queries off the mapping, takes a kill -9
// while queries are in flight over it, and a second mapped restart answers
// bit-identically — the PROT_READ mapping means the crash cannot have
// dirtied the file it was serving from.
func TestMappedCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess lifecycle test")
	}
	dataDir, snapDir := t.TempDir(), t.TempDir()
	g, base, _ := writeDataset(t, dataDir)
	addrFile := filepath.Join(t.TempDir(), "addr")
	client := &http.Client{Timeout: 30 * time.Second}

	// Pre-seed the snapshot both mapped restarts serve from.
	seed, err := pathhist.NewEngine(g, base, pathhist.Options{Partition: pathhist.ByZone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.SnapshotFileIn(snapDir); err != nil {
		t.Fatal(err)
	}

	start := func() *exec.Cmd {
		t.Helper()
		os.Remove(addrFile)
		cmd := exec.Command(os.Args[0], "-test.run=TestHelperServeProcess")
		cmd.Env = append(os.Environ(),
			"TTSERVE_HELPER=1",
			"TTSERVE_DATA="+dataDir,
			"TTSERVE_SNAP="+snapDir,
			"TTSERVE_ADDRFILE="+addrFile,
			"TTSERVE_MMAP=1",
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	waitReady := func() string {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				url := "http://" + string(b)
				if resp, err := client.Get(url + "/readyz"); err == nil {
					code := resp.StatusCode
					resp.Body.Close()
					if code == http.StatusOK {
						return url
					}
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatal("server never became ready")
		return ""
	}
	fetch := func(url string) map[string]any {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status = %d", resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	cmd := start()
	url := waitReady()
	queryPath := pathParam(base.Get(0).Path())
	want := fetch(fmt.Sprintf("%s/query?path=%s&beta=5", url, queryPath))

	// Keep queries in flight over the mapping while the kill -9 lands.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(fmt.Sprintf("%s/query?path=%s&beta=5", url, queryPath))
				if err != nil {
					return // connection dies with the process: expected
				}
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	close(stop)
	wg.Wait()
	client.CloseIdleConnections()

	// The snapshot file the crashed process was mapped over is untouched;
	// a second mapped restart serves bit-identical answers.
	cmd2 := start()
	defer func() {
		_ = cmd2.Process.Signal(syscall.SIGTERM)
		_ = cmd2.Wait()
	}()
	url2 := waitReady()
	got := fetch(fmt.Sprintf("%s/query?path=%s&beta=5", url2, queryPath))
	for _, k := range []string{"mean_seconds", "p05_seconds", "p50_seconds", "p95_seconds", "epoch"} {
		if got[k] != want[k] {
			t.Fatalf("post-crash %s = %v, pre-crash %v", k, got[k], want[k])
		}
	}
	st := fetch(url2 + "/statsz")
	if n, ok := st["trajectories"].(float64); !ok || int(n) != base.Len() {
		t.Fatalf("restarted server holds %v trajectories, want %d", st["trajectories"], base.Len())
	}
}

func pathParam(p pathhist.Path) string {
	out := ""
	for i, e := range p {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(int(e))
	}
	return out
}
