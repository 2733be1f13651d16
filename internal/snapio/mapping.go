// The backing-store abstraction of zero-copy snapshot loading (DESIGN.md
// §15): a decoded index owns its columns on the heap (NewReader) or views
// them over a read-only file mapping (MapFile + NewMappedReader). A Mapping
// is the second kind of backing store; it hands out one immutable byte
// slice covering the whole file and stays alive for as long as any decoded
// structure references it.

package snapio

// Mapping is a snapshot file opened as a read-only backing store. On unix
// it is a PROT_READ mmap — the kernel enforces immutability (a write
// through a view faults) and K processes or engines mapping the same file
// share one page cache. Elsewhere it degrades to a heap copy of the file
// with identical semantics minus the sharing.
//
// Lifecycle: every column decoded from a NewMappedReader over Data()
// aliases the mapping, so Close must not run until every index epoch that
// references those columns is unreachable. Engines that load from a
// mapping therefore hold it for their whole lifetime and let process exit
// clean it up; Close exists for tests and for loads that fail before
// publishing.
type Mapping struct {
	data   []byte
	path   string
	mapped bool
}

// MapFile opens path as a read-only backing store: a real mapping on unix,
// a heap copy of the file elsewhere.
func MapFile(path string) (*Mapping, error) { return mapFile(path) }

// Data returns the file bytes. The slice is immutable: it may be backed by
// read-only pages.
func (m *Mapping) Data() []byte { return m.data }

// Path returns the file the mapping was opened from.
func (m *Mapping) Path() string { return m.path }

// Close releases the mapping. It must only be called once nothing decoded
// over Data remains reachable; after Close, Data returns nil.
func (m *Mapping) Close() error {
	data, mapped := m.data, m.mapped
	m.data = nil
	if !mapped || data == nil {
		return nil
	}
	return munmap(data)
}
