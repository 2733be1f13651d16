package snt

import (
	"errors"
	"fmt"

	"pathhist/internal/temporal"
	"pathhist/internal/traj"
)

// ErrSuperseded is returned by Extend when the receiver has already been
// extended: extension chains are strictly linear (see Extend).
var ErrSuperseded = errors.New("snt: index snapshot already extended; extend the newest snapshot")

// ValidateBatch checks a batch against this snapshot exactly as Extend
// would, without extending anything: every edge id in range, every
// trajectory internally valid, and every trajectory starting after the
// indexed range ends. It exists so the serving layer can establish "Extend
// will accept this batch" BEFORE durably logging it to the write-ahead log
// — a batch that passes here fails Extend only on resource exhaustion, so
// the log never records a batch that replay would then reject. It does not
// mutate the batch (the minimum start is found by scanning, not sorting).
func (ix *Index) ValidateBatch(add *traj.Store) error {
	if add == nil || add.Len() == 0 {
		return nil
	}
	minStart := int64(0)
	for i := range add.All() {
		tr := &add.All()[i]
		for _, e := range tr.Seq {
			if int(e.Edge) < 0 || int(e.Edge) >= ix.g.NumEdges() {
				return fmt.Errorf("snt: batch trajectory %d: edge id %d out of range [0, %d)",
					i, e.Edge, ix.g.NumEdges())
			}
		}
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("snt: batch %w", err)
		}
		if s := tr.StartTime(); i == 0 || s < minStart {
			minStart = s
		}
	}
	if minStart <= ix.tmax {
		return fmt.Errorf("snt: batch starts at %d, inside indexed range ending %d",
			minStart, ix.tmax)
	}
	return nil
}

// Extend returns a new index covering the receiver's trajectories plus a
// batch of newer ones, added as one additional temporal partition — the
// batch-update path that temporal partitioning exists for (Section 4.3.2):
// the FM-index does not support appends, so the batch gets its own
// trajectory string, suffix array and wavelet tree, while the frozen
// temporal columns absorb the new records append-only (like the paper's
// CSS-tree).
//
// Extend is copy-on-write: the receiver is never modified and remains a
// fully consistent, queryable snapshot, so readers that hold it are
// unaffected — publishing the returned index to concurrent readers through
// an atomic pointer swap gives non-blocking batch ingestion (the pattern
// query.Engine.Extend implements). Unchanged state (FM-index partitions,
// per-segment columns without new records) is shared between the snapshots;
// shared slices may also share spare append capacity, which makes extension
// chains strictly linear: only the newest snapshot may be extended, and
// extending an older one fails with ErrSuperseded.
//
// Every trajectory in the batch must start after the currently indexed data
// ends (partitions are ordered by start time); the batch's trajectory ids
// are reassigned to continue the index's id space, and the batch store is
// sorted by start time as a side effect. An empty or nil batch returns the
// receiver itself.
func (ix *Index) Extend(add *traj.Store) (*Index, error) {
	if add == nil || add.Len() == 0 {
		return ix, nil
	}
	// Validate the batch before anything else: Extend is reachable from
	// untrusted input through the serving layer, and an out-of-range edge
	// id would otherwise panic deep inside suffix-array construction.
	if err := ix.ValidateBatch(add); err != nil {
		return nil, err
	}
	// Try-acquire the exclusive right to extend this snapshot. The deferred
	// release covers every non-committed exit — rejected batches and
	// panics alike leave the snapshot extendable (no shared state has been
	// touched before the commit point).
	if ix.superseded.Swap(true) {
		return nil, ErrSuperseded
	}
	committed := false
	defer func() {
		if !committed {
			ix.superseded.Store(false)
		}
	}()
	add.SortByStart()
	if minStart := add.All()[0].StartTime(); minStart <= ix.tmax {
		return nil, fmt.Errorf("snt: batch starts at %d, inside indexed range ending %d",
			minStart, ix.tmax)
	}
	w := len(ix.parts)
	newMax := ix.tmax
	for i := range add.All() {
		for _, e := range add.All()[i].Seq {
			if end := e.T + int64(e.TT); end > newMax {
				newMax = end
			}
		}
	}

	// Build the partition: its trajectory string, FM-index and forest
	// batch, which the forest absorbs append-only.
	var frozen *temporal.FrozenForest
	var err error
	parts := buildPartitions(ix.g.NumEdges(), ix.alphabet, [][]traj.Trajectory{add.All()}, traj.ID(len(ix.users)),
		func(fb *temporal.ForestBuilder) { frozen, err = ix.frozen.Extend(fb) })
	if err != nil {
		return nil, err
	}

	// Assemble the new snapshot. parts is copied outright (it is tiny);
	// users and part grow by plain append — any shared spare capacity is
	// written only beyond the receiver's visible length, which the
	// superseded flag keeps single-writer. The first Extend materialises
	// part with the all-zero prefix of the single partition it leaves.
	nix := &Index{
		g:        ix.g,
		opts:     ix.opts,
		parts:    append(ix.parts[:len(ix.parts):len(ix.parts)], parts[0]),
		frozen:   frozen,
		users:    ix.users,
		part:     ix.part,
		tmin:     ix.tmin,
		tmax:     newMax,
		alphabet: ix.alphabet,
		stats:    ix.stats,
	}
	if nix.part == nil {
		nix.part = make([]int32, len(ix.users), len(ix.users)+add.Len())
	}
	for i := range add.All() {
		nix.users = append(nix.users, add.All()[i].User)
		nix.part = append(nix.part, int32(w))
	}
	nix.stats.Partitions = len(nix.parts)
	nix.stats.Records += parts[0].records
	nix.stats.Trajs += add.Len()
	nix.inheritWhole(ix)
	committed = true
	return nix, nil
}
