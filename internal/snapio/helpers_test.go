package snapio

// Mapped reports whether Data is an OS mapping (false on the portable
// heap-copy fallback).
func (m *Mapping) Mapped() bool { return m.mapped }
