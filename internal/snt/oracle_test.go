package snt

import (
	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// GetTravelTimes is GetTravelTimesWith over pooled scratch state: the
// returned slice is freshly allocated and owned by the caller.
func (ix *Index) GetTravelTimes(p network.Path, iv Interval, f Filter, beta int) (xs []int, fallback bool) {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	view, fallback := ix.GetTravelTimesWith(sc, p, iv, f, beta)
	if view == nil {
		return nil, fallback
	}
	xs = make([]int, len(view))
	copy(xs, view)
	return xs, fallback
}

// Runs returns how many partition runs the preparation merges.
func (p *PreparedCompaction) Runs() int { return len(p.runs) }

// Compact merges runs of adjacent partitions per the policy and returns the
// compacted snapshot — PrepareCompaction and ApplyCompaction back to back
// on one snapshot, a synchronous convenience for callers that own the
// snapshot outright (the serving engine prepares and applies apart,
// query.Engine.merge). When the policy plans no merge the receiver
// itself is returned (not superseded, still extendable). Otherwise the
// receiver is superseded exactly like Extend supersedes it: only the
// returned snapshot may be extended or compacted further. Query results
// from the compacted snapshot are bit-identical to the receiver's — and to
// a from-scratch Build over the same trajectories with the merged layout.
func (ix *Index) Compact(policy CompactionPolicy) (*Index, CompactionStats, error) {
	p, err := ix.PrepareCompaction(policy, nil)
	if err != nil {
		return nil, CompactionStats{PartitionsBefore: len(ix.parts), PartitionsAfter: len(ix.parts)}, err
	}
	return ix.ApplyCompaction(p)
}

// CompactedFrom returns the partition count before the Compact call that
// produced this snapshot, or 0 when it was never compacted.
func (ix *Index) CompactedFrom() int { return ix.compactedFrom }

// User returns the user id of a trajectory (the container U).
func (ix *Index) User(d traj.ID) traj.UserID { return ix.users[d] }
