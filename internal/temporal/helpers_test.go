package temporal

// NumRecords returns the total number of traversal records.
func (f *FrozenForest) NumRecords() int {
	n := 0
	for _, fx := range f.idx {
		n += fx.Len()
	}
	return n
}
