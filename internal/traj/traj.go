// Package traj models network-constrained trajectories (NCTs) as defined in
// Section 2.2 of the paper: a trajectory (d, u, s) of driver u with id d is a
// sequence s = <(e0,t0,TT0), ..., (e_{l-1},t_{l-1},TT_{l-1})> of traversed
// segments with entry timestamps and traversal durations. The package also
// provides the 180-second gap splitting of the ITSP preprocessing step
// (Section 5.1.3), a trajectory store, and binary serialisation.
package traj

import (
	"fmt"
	"sort"

	"pathhist/internal/network"
)

// ID identifies a trajectory (the set D of the paper).
type ID int32

// UserID identifies a driver (the set U of the paper). The ITSP dataset uses
// the vehicle id as the user id; so does this reproduction.
type UserID int32

// NoUser marks a trajectory without user information.
const NoUser UserID = -1

// Entry is one element of the sequence s: segment e entered at time t (unix
// seconds) and traversed in TT seconds (TT > 0).
type Entry struct {
	Edge network.EdgeID
	T    int64
	TT   int32
}

// Trajectory is a network-constrained trajectory (d, u, s).
type Trajectory struct {
	ID   ID
	User UserID
	Seq  []Entry
}

// Len returns the number of traversed segments l.
func (tr *Trajectory) Len() int { return len(tr.Seq) }

// StartTime returns tr.t0, the entry time of the first segment.
func (tr *Trajectory) StartTime() int64 {
	if len(tr.Seq) == 0 {
		return 0
	}
	return tr.Seq[0].T
}

// Path returns P_tr, the sequence of traversed edges.
func (tr *Trajectory) Path() network.Path {
	p := make(network.Path, len(tr.Seq))
	for i, e := range tr.Seq {
		p[i] = e.Edge
	}
	return p
}

// TotalDuration returns the summed traversal time of all segments in seconds.
func (tr *Trajectory) TotalDuration() int64 {
	var sum int64
	for _, e := range tr.Seq {
		sum += int64(e.TT)
	}
	return sum
}

// Validate checks the Section 2.2 invariants: strictly increasing entry
// timestamps and positive traversal durations.
func (tr *Trajectory) Validate() error {
	for i, e := range tr.Seq {
		if e.TT <= 0 {
			return fmt.Errorf("traj %d: entry %d has TT %d <= 0", tr.ID, i, e.TT)
		}
		if i > 0 && e.T <= tr.Seq[i-1].T {
			return fmt.Errorf("traj %d: timestamps not increasing at %d", tr.ID, i)
		}
	}
	return nil
}

// MaxGap is the ITSP trajectory-splitting threshold: a new trajectory starts
// if more than 180 seconds elapsed since the previous GPS point.
const MaxGap int64 = 180

// SplitGaps splits a raw traversal sequence into maximal sub-sequences whose
// consecutive entries are separated by at most MaxGap seconds of idle time
// (t_{i+1} <= t_i + TT_i + maxGap). This mirrors the ITSP preprocessing step.
func SplitGaps(seq []Entry, maxGap int64) [][]Entry {
	if len(seq) == 0 {
		return nil
	}
	var out [][]Entry
	start := 0
	for i := 1; i < len(seq); i++ {
		if seq[i].T > seq[i-1].T+int64(seq[i-1].TT)+maxGap {
			out = append(out, seq[start:i])
			start = i
		}
	}
	return append(out, seq[start:])
}

// Store holds the trajectory set T and the driver association.
type Store struct {
	trajs []Trajectory
	users map[UserID]struct{}
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{users: make(map[UserID]struct{})}
}

// Add appends a trajectory, assigning it the next id. It panics on an empty
// sequence (a programming error in the caller).
func (s *Store) Add(user UserID, seq []Entry) ID {
	if len(seq) == 0 {
		panic("traj: Add with empty sequence")
	}
	id := ID(len(s.trajs))
	s.trajs = append(s.trajs, Trajectory{ID: id, User: user, Seq: seq})
	if user != NoUser {
		s.users[user] = struct{}{}
	}
	return id
}

// Len returns |T|.
func (s *Store) Len() int { return len(s.trajs) }

// NumUsers returns the number of distinct drivers.
func (s *Store) NumUsers() int { return len(s.users) }

// Get returns the trajectory with the given id.
func (s *Store) Get(id ID) *Trajectory { return &s.trajs[id] }

// All returns the backing slice of trajectories. It must not be modified.
func (s *Store) All() []Trajectory { return s.trajs }

// NumTraversals returns the total number of segment traversals.
func (s *Store) NumTraversals() int {
	n := 0
	for i := range s.trajs {
		n += len(s.trajs[i].Seq)
	}
	return n
}

// SortByStart orders trajectories by start time and reassigns ids so that
// id order equals temporal order — the property temporal index partitioning
// relies on (Section 4.3.2). It returns the store for chaining.
func (s *Store) SortByStart() *Store {
	sort.SliceStable(s.trajs, func(i, j int) bool {
		return s.trajs[i].StartTime() < s.trajs[j].StartTime()
	})
	for i := range s.trajs {
		s.trajs[i].ID = ID(i)
	}
	return s
}

// Slice returns a deep copy of trajectories [lo, hi) as a fresh store with
// ids renumbered from 0 — the batch-carving primitive of the ingestion
// paths (an Extend batch must be its own store).
func (s *Store) Slice(lo, hi int) *Store {
	out := NewStore()
	for i := lo; i < hi; i++ {
		tr := &s.trajs[i]
		out.Add(tr.User, append([]Entry(nil), tr.Seq...))
	}
	return out
}

// QuiescentCuts returns the positions at which the store can be split into
// strictly-newer batches: every returned index i marks a trajectory that
// starts strictly after every earlier trajectory has ended, which is
// exactly the precondition snt.Index.Extend places on a batch. The store
// is sorted by start time as a side effect.
func (s *Store) QuiescentCuts() []int {
	s.SortByStart()
	var cuts []int
	var maxEnd int64
	for i := range s.trajs {
		tr := &s.trajs[i]
		if i > 0 && tr.StartTime() > maxEnd {
			cuts = append(cuts, i)
		}
		last := tr.Seq[len(tr.Seq)-1]
		if end := last.T + int64(last.TT); end > maxEnd {
			maxEnd = end
		}
	}
	return cuts
}

// MedianStart returns the median trajectory start time, used to derive the
// query set ("a random 1% sample of all trajectories ... after the median of
// the timestamps", Section 6).
func (s *Store) MedianStart() int64 {
	if len(s.trajs) == 0 {
		return 0
	}
	ts := make([]int64, len(s.trajs))
	for i := range s.trajs {
		ts[i] = s.trajs[i].StartTime()
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[len(ts)/2]
}

// TimeRange returns the earliest start and the latest segment exit time over
// all trajectories, the [0, tmax) bounds for fixed-interval fallbacks.
func (s *Store) TimeRange() (min, max int64) {
	if len(s.trajs) == 0 {
		return 0, 0
	}
	min = s.trajs[0].StartTime()
	for i := range s.trajs {
		tr := &s.trajs[i]
		if st := tr.StartTime(); st < min {
			min = st
		}
		last := tr.Seq[len(tr.Seq)-1]
		if end := last.T + int64(last.TT); end > max {
			max = end
		}
	}
	return min, max
}
