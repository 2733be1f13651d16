package query

import (
	"testing"
	"time"

	"pathhist/internal/failpoint"
	"pathhist/internal/snt"
	"pathhist/internal/workload"
)

// TestCloseAbandonsBackgroundPrepare: Close during a background preparation
// must not wait the whole merge out. Each run's rebuild is held open by the
// failpoint; Close closes the compactor's stop channel, the preparation
// abandons at the next chunk boundary (snt.ErrCompactionAborted), and the
// abort is shutdown, not a failure — the backlog simply stays unmerged.
func TestCloseAbandonsBackgroundPrepare(t *testing.T) {
	ds := workload.BuildDataset(workload.SmallConfig())
	base, batches := ingestBatches(ds.Store.Slice(0, ds.Store.Len()))
	if len(batches) < 4 {
		t.Skipf("dataset yields only %d quiescent batches", len(batches))
	}
	// Cap merged runs at ~a third of the records so the plan has several
	// runs — the multi-run merge whose chunk boundaries Close relies on.
	probe := snt.Build(ds.G, ds.Store.Slice(0, ds.Store.Len()), snt.Options{})
	capRecords := probe.Stats().Records/3 + 1
	eng := NewEngine(snt.Build(ds.G, base, snt.Options{}), Config{
		Partitioner: Partitioner{Kind: ZoneKind},
		BucketWidth: 10,
		Compaction: snt.CompactionPolicy{
			TriggerPartitions: len(batches) + 1,
			MaxMergedRecords:  capRecords,
		},
	})
	defer eng.Close()

	const runDelay = 400 * time.Millisecond
	for b, batch := range batches {
		if b == len(batches)-1 {
			// The last Extend crosses the trigger and kicks the compactor;
			// from here every run rebuild stalls in the failpoint.
			failpoint.Enable(snt.FailpointPrepareRun, failpoint.Injection{Delay: runDelay})
			defer failpoint.Disable(snt.FailpointPrepareRun)
		}
		if _, err := eng.Extend(batch); err != nil {
			t.Fatalf("extend %d: %v", b, err)
		}
	}
	// Let the cycle reach the first run's stalled rebuild, then close.
	time.Sleep(runDelay / 8)
	started := time.Now()
	eng.Close()
	elapsed := time.Since(started)
	// An abandoned prepare costs at most the run in flight (~runDelay); a
	// full one would cost every planned run plus the apply.
	if elapsed >= 2*runDelay {
		t.Fatalf("Close took %v — it waited out the whole preparation", elapsed)
	}
	if f := eng.CompactionFailures(); f != 0 {
		t.Fatalf("shutdown abort was counted as %d compaction failures", f)
	}
	// The backlog stays for a later cycle; the engine still serves.
	if eng.Index().NumPartitions() < 2 {
		t.Fatalf("partitions = %d; the abandoned merge should have left the backlog", eng.Index().NumPartitions())
	}
}
