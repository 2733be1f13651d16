package experiments

import (
	"fmt"

	"pathhist/internal/snt"
	"pathhist/internal/traj"
)

// IngestionCuts picks up to nBatches quiescent split points in the newest
// half of a store (sorting it as a side effect): the resulting batches
// each start strictly after everything before them has ended — the Extend
// precondition — and are spread evenly over the available boundaries. nil
// means the store has too few boundaries to split at all.
func IngestionCuts(s *traj.Store, nBatches int) []int {
	cuts := s.QuiescentCuts()
	if len(cuts) < 2 {
		return nil
	}
	tail := cuts[len(cuts)/2:]
	if nBatches < len(tail) {
		stride := len(tail) / nBatches
		picked := make([]int, 0, nBatches)
		for i := 0; i < len(tail) && len(picked) < nBatches; i += stride {
			picked = append(picked, tail[i])
		}
		tail = picked
	}
	return tail
}

// FragmentedIndex builds an index over the oldest half of the dataset and
// ingests the rest through up to nBatches Extend batches cut at quiescent
// boundaries, returning the fragmented index (one partition per batch plus
// the base).
func (env *Env) FragmentedIndex(nBatches int) *snt.Index {
	s := env.DS.Store.Slice(0, env.DS.Store.Len())
	cuts := IngestionCuts(s, nBatches)
	if cuts == nil {
		// No split points: the whole dataset in one build.
		return snt.Build(env.DS.G, s, snt.Options{})
	}
	ix := snt.Build(env.DS.G, s.Slice(0, cuts[0]), snt.Options{})
	for b := range cuts {
		hi := s.Len()
		if b+1 < len(cuts) {
			hi = cuts[b+1]
		}
		next, err := ix.Extend(s.Slice(cuts[b], hi))
		if err != nil {
			panic(fmt.Sprintf("experiments: fragmenting extend %d: %v", b, err))
		}
		ix = next
	}
	return ix
}
