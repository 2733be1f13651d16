package experiments

import (
	"fmt"

	"pathhist/internal/snt"
	"pathhist/internal/workload"
)

// FragmentedIndex builds an index over the oldest half of the dataset and
// ingests the rest through up to nBatches Extend batches cut at quiescent
// boundaries, returning the fragmented index (one partition per batch plus
// the base).
func (env *Env) FragmentedIndex(nBatches int) *snt.Index {
	s := env.DS.Store.Slice(0, env.DS.Store.Len())
	cuts := workload.IngestionCuts(s, nBatches)
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
