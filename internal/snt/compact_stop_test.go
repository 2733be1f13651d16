package snt

import (
	"errors"
	"testing"
	"time"

	"pathhist/internal/failpoint"
)

// TestPrepareCompactionAborts pins the chunked-preparation contract: the
// stop channel is honoured before the run loop and between per-run rebuilds,
// an abort supersedes nothing, and the same index still compacts normally
// afterwards.
func TestPrepareCompactionAborts(t *testing.T) {
	g, _, s := synthStore(t, 24, 12)
	frag := fragmentedIndex(t, g, s, 11, Options{})
	if frag.NumPartitions() != 12 {
		t.Fatalf("partitions = %d", frag.NumPartitions())
	}
	// A record cap of ~3 partitions' worth yields a multi-run plan — the
	// "giant merge" whose chunk boundaries the stop channel is checked at.
	policy := CompactionPolicy{TriggerPartitions: -1, MaxMergedRecords: frag.parts[1].records*3 + 1}
	runs := policy.withDefaults().plan(frag.parts)
	if len(runs) < 3 {
		t.Fatalf("plan yields %d runs; the test needs a multi-run merge", len(runs))
	}

	// A stop that is already closed aborts before any run is built.
	closed := make(chan struct{})
	close(closed)
	if p, err := frag.PrepareCompaction(policy, closed); !errors.Is(err, ErrCompactionAborted) || p != nil {
		t.Fatalf("pre-closed stop: got (%v, %v), want ErrCompactionAborted", p, err)
	}

	// Mid-flight: each run's rebuild is held open by the failpoint; closing
	// the stop during the first run must abandon the preparation at the next
	// run boundary instead of building all of them.
	const runDelay = 150 * time.Millisecond
	failpoint.Enable(FailpointPrepareRun, failpoint.Injection{Delay: runDelay})
	defer failpoint.Disable(FailpointPrepareRun)
	stop := make(chan struct{})
	go func() {
		time.Sleep(runDelay / 3)
		close(stop)
	}()
	started := time.Now()
	p, err := frag.PrepareCompaction(policy, stop)
	elapsed := time.Since(started)
	if !errors.Is(err, ErrCompactionAborted) || p != nil {
		t.Fatalf("mid-flight stop: got (%v, %v), want ErrCompactionAborted", p, err)
	}
	if full := time.Duration(len(runs)) * runDelay; elapsed >= full-runDelay {
		t.Fatalf("abort took %v — it waited out the full %d-run merge (~%v)", elapsed, len(runs), full)
	}
	failpoint.Disable(FailpointPrepareRun)

	// Aborted preparations supersede nothing: the receiver compacts fine.
	compacted, stats, err := frag.Compact(policy)
	if err != nil {
		t.Fatalf("compact after aborts: %v", err)
	}
	if stats.Runs != len(runs) || compacted.NumPartitions() >= frag.NumPartitions() {
		t.Fatalf("compaction after aborts: %+v, %d partitions", stats, compacted.NumPartitions())
	}
}
