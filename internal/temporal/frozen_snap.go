// Snapshot serialization of the frozen columnar forest (DESIGN.md §10).
// Each segment's FrozenIndex is written as its raw columns — Ts, Traj, Seq,
// ISA — in ascending segment-id order, followed by the trajectory-major
// Start and Cum columns, so snapshots of the same forest are byte-identical
// and loading is a straight column copy with no re-sorting or tree
// rebuilding.
package temporal

import (
	"fmt"
	"sort"

	"pathhist/internal/network"
	"pathhist/internal/snapio"
	"pathhist/internal/traj"
)

// EncodeSnap appends the forest to the open snapshot section.
func (f *FrozenForest) EncodeSnap(w *snapio.Writer) {
	edges := make([]network.EdgeID, 0, len(f.idx))
	for e := range f.idx {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	w.U64(uint64(len(edges)))
	for _, e := range edges {
		fx := f.idx[e]
		w.I64(int64(e))
		w.I64s(fx.Ts)
		snapio.WriteI32s(w, fx.Traj)
		w.I32s(fx.Seq)
		w.I32s(fx.ISA)
	}
	w.I32s(f.Start)
	w.I32s(f.Cum)
}

// DecodeSnapForest reads a forest written by EncodeSnap, validating that
// every segment's columns agree in length and timestamps are sorted (the
// FrozenIndex invariant every scan relies on). Whether Start and Cum agree
// with each other and with the records is the loader's check (snt), which
// knows the trajectory count they must cover.
func DecodeSnapForest(r *snapio.Reader) (*FrozenForest, error) {
	numIdx := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if numIdx > r.Remaining() {
		return nil, fmt.Errorf("temporal: snapshot declares %d segment indexes, %d bytes remain", numIdx, r.Remaining())
	}
	f := &FrozenForest{idx: make(map[network.EdgeID]*FrozenIndex, numIdx)}
	for i := 0; i < numIdx; i++ {
		e := network.EdgeID(r.I64())
		// In zero-copy mode the columns below alias the reader's mapping;
		// Mapped makes extension detach them before appending.
		fx := &FrozenIndex{Mapped: r.ZeroCopy()}
		fx.Ts = r.I64s()
		fx.Traj = snapio.ReadI32s[traj.ID](r)
		fx.Seq = r.I32s()
		fx.ISA = r.I32s()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("temporal: segment %d: %w", e, err)
		}
		n := len(fx.Ts)
		if n == 0 || len(fx.Traj) != n || len(fx.Seq) != n || len(fx.ISA) != n {
			return nil, fmt.Errorf("temporal: segment %d: ragged snapshot columns (n=%d)", e, n)
		}
		// One pass over Ts checks the order and recounts the census, which
		// is derived state and not part of the format (into a local, so the
		// stores cannot alias the column the loop is reading).
		ts := fx.Ts
		var census [CensusBuckets]uint8
		censusAdd(&census, ts[0])
		for j := 1; j < n; j++ {
			if ts[j] < ts[j-1] {
				return nil, fmt.Errorf("temporal: segment %d: snapshot timestamps unsorted at %d", e, j)
			}
			censusAdd(&census, ts[j])
		}
		fx.census = census
		if _, dup := f.idx[e]; dup {
			return nil, fmt.Errorf("temporal: segment %d appears twice in snapshot", e)
		}
		f.idx[e] = fx
	}
	f.Start = r.I32s()
	f.Cum = r.I32s()
	f.mapped = r.ZeroCopy()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("temporal: cumulative column: %w", err)
	}
	return f, nil
}
