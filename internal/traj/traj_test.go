package traj

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"pathhist/internal/network"
)

// paperTrajectories builds the example trajectory set of Section 2.2:
//
//	tr0: (0,u1) -> <(A,0,3),(B,3,4),(E,7,4)>
//	tr1: (1,u2) -> <(A,2,4),(C,6,2),(D,8,4),(E,12,5)>
//	tr2: (2,u2) -> <(A,4,3),(B,7,3),(F,10,6)>
//	tr3: (3,u1) -> <(A,6,3),(B,9,3),(E,12,4)>
func paperTrajectories(t testing.TB) (*Store, map[string]network.EdgeID) {
	t.Helper()
	_, ids := network.PaperExample()
	s := NewStore()
	add := func(user UserID, entries ...Entry) {
		s.Add(user, entries)
	}
	e := func(name string, t int64, tt int32) Entry {
		return Entry{Edge: ids[name], T: t, TT: tt}
	}
	add(1, e("A", 0, 3), e("B", 3, 4), e("E", 7, 4))
	add(2, e("A", 2, 4), e("C", 6, 2), e("D", 8, 4), e("E", 12, 5))
	add(2, e("A", 4, 3), e("B", 7, 3), e("F", 10, 6))
	add(1, e("A", 6, 3), e("B", 9, 3), e("E", 12, 4))
	return s, ids
}

func TestPaperDurExamples(t *testing.T) {
	s, ids := paperTrajectories(t)
	p := network.Path{ids["A"], ids["B"], ids["E"]}
	d0, err := s.Get(0).Dur(p)
	if err != nil || d0 != 11 {
		t.Errorf("Dur(tr0, <A,B,E>) = %d, %v; want 11", d0, err)
	}
	d3, err := s.Get(3).Dur(p)
	if err != nil || d3 != 10 {
		t.Errorf("Dur(tr3, <A,B,E>) = %d, %v; want 10", d3, err)
	}
	// tr1 does not traverse <A,B,E>.
	if _, err := s.Get(1).Dur(p); err != ErrNoSubPath {
		t.Errorf("Dur(tr1, <A,B,E>) err = %v, want ErrNoSubPath", err)
	}
	// Sub-path of tr1.
	d1, err := s.Get(1).Dur(network.Path{ids["C"], ids["D"]})
	if err != nil || d1 != 6 {
		t.Errorf("Dur(tr1, <C,D>) = %d, %v; want 6", d1, err)
	}
	// Empty path is undefined.
	if _, err := s.Get(0).Dur(nil); err != ErrNoSubPath {
		t.Errorf("Dur(tr0, <>) should be undefined")
	}
	// Path longer than the trajectory.
	long := network.Path{ids["A"], ids["B"], ids["E"], ids["F"], ids["A"]}
	if _, err := s.Get(0).Dur(long); err != ErrNoSubPath {
		t.Errorf("overlong path should be undefined")
	}
}

func TestValidate(t *testing.T) {
	s, ids := paperTrajectories(t)
	for _, tr := range s.All() {
		if err := tr.Validate(); err != nil {
			t.Errorf("paper trajectory invalid: %v", err)
		}
	}
	bad := Trajectory{Seq: []Entry{{Edge: ids["A"], T: 0, TT: 0}}}
	if bad.Validate() == nil {
		t.Error("zero TT should be invalid")
	}
	bad2 := Trajectory{Seq: []Entry{
		{Edge: ids["A"], T: 5, TT: 1}, {Edge: ids["B"], T: 5, TT: 1},
	}}
	if bad2.Validate() == nil {
		t.Error("non-increasing timestamps should be invalid")
	}
}

func TestStoreBasics(t *testing.T) {
	s, _ := paperTrajectories(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.NumUsers() != 2 {
		t.Errorf("NumUsers = %d, want 2", s.NumUsers())
	}
	if s.NumTraversals() != 13 {
		t.Errorf("NumTraversals = %d, want 13", s.NumTraversals())
	}
	min, max := s.TimeRange()
	if min != 0 || max != 17 {
		t.Errorf("TimeRange = [%d, %d), want [0, 17)", min, max)
	}
	if s.MedianStart() != 4 {
		t.Errorf("MedianStart = %d, want 4", s.MedianStart())
	}
	if got := s.Get(0).TotalDuration(); got != 11 {
		t.Errorf("TotalDuration(tr0) = %d", got)
	}
	if p := s.Get(1).Path(); len(p) != 4 {
		t.Errorf("Path(tr1) = %v", p)
	}
}

func TestSortByStart(t *testing.T) {
	s := NewStore()
	s.Add(1, []Entry{{Edge: 0, T: 100, TT: 5}})
	s.Add(1, []Entry{{Edge: 0, T: 50, TT: 5}})
	s.Add(2, []Entry{{Edge: 0, T: 75, TT: 5}})
	s.SortByStart()
	var prev int64 = -1
	for i, tr := range s.All() {
		if tr.ID != ID(i) {
			t.Errorf("id %d at position %d", tr.ID, i)
		}
		if tr.StartTime() < prev {
			t.Errorf("not sorted at %d", i)
		}
		prev = tr.StartTime()
	}
}

func TestSplitGaps(t *testing.T) {
	seq := []Entry{
		{Edge: 0, T: 0, TT: 10},
		{Edge: 1, T: 10, TT: 10},   // contiguous
		{Edge: 2, T: 150, TT: 10},  // 130 s idle: within MaxGap
		{Edge: 3, T: 400, TT: 10},  // 240 s idle: split
		{Edge: 4, T: 411, TT: 10},  // contiguous-ish
		{Edge: 5, T: 7000, TT: 10}, // split again
	}
	parts := SplitGaps(seq, MaxGap)
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3 (%v)", len(parts), parts)
	}
	if len(parts[0]) != 3 || len(parts[1]) != 2 || len(parts[2]) != 1 {
		t.Errorf("part sizes = %d,%d,%d", len(parts[0]), len(parts[1]), len(parts[2]))
	}
	if SplitGaps(nil, MaxGap) != nil {
		t.Error("empty input should return nil")
	}
	one := SplitGaps(seq[:1], MaxGap)
	if len(one) != 1 || len(one[0]) != 1 {
		t.Error("single entry should be one part")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, _ := paperTrajectories(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadStore(&buf)
	if err != nil {
		t.Fatalf("ReadStore: %v", err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip lost trajectories: %d vs %d", got.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		a, b := s.Get(ID(i)), got.Get(ID(i))
		if a.User != b.User || len(a.Seq) != len(b.Seq) {
			t.Fatalf("trajectory %d differs", i)
		}
		for j := range a.Seq {
			if a.Seq[j] != b.Seq[j] {
				t.Fatalf("entry %d/%d differs: %+v vs %+v", i, j, a.Seq[j], b.Seq[j])
			}
		}
	}
}

func TestReadStoreErrors(t *testing.T) {
	if _, err := ReadStore(bytes.NewReader([]byte("BAD!xxxx"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadStore(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated payload.
	s, _ := paperTrajectories(t)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadStore(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input accepted")
	}
	// Hostile length prefixes (the format is accepted over HTTP via
	// /extend): a huge per-trajectory length must fail with a read error,
	// not a multi-GiB up-front allocation, and a zero length is invalid.
	hostile := []byte{'N', 'C', 'T', '1', 1, 0, 0, 0 /* count=1 */, 0, 0, 0, 0 /* user */, 0xFF, 0xFF, 0xFF, 0xFF /* l */}
	if _, err := ReadStore(bytes.NewReader(hostile)); err == nil {
		t.Error("huge length prefix accepted")
	}
	empty := []byte{'N', 'C', 'T', '1', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0 /* l=0 */}
	if _, err := ReadStore(bytes.NewReader(empty)); err == nil {
		t.Error("zero-length trajectory accepted")
	}
}

// TestReadStoreTruncationErrors cuts an encoding at every byte and checks
// the error names where the stream ended: the trajectory, the entry, and
// io.EOF at a header or entry boundary, io.ErrUnexpectedEOF inside one. A
// trajectory longer than chunkEntries puts cuts on both sides of a chunk
// boundary.
func TestReadStoreTruncationErrors(t *testing.T) {
	s := NewStore()
	s.Add(3, []Entry{{Edge: 1, T: 10, TT: 2}})
	long := make([]Entry, chunkEntries+37)
	for j := range long {
		long[j] = Entry{Edge: network.EdgeID(j % 9), T: int64(100 + 3*j), TT: 3}
	}
	s.Add(4, long)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	kind := func(off int) string {
		if off == 0 {
			return "EOF"
		}
		return "unexpected EOF"
	}
	// want maps a cut position to the error ReadStore must return.
	want := func(k int) string {
		switch {
		case k < 4:
			return "traj: reading magic: " + kind(k)
		case k < 8:
			return "traj: reading count: " + kind(k-4)
		}
		pos := 8
		for i := 0; i < s.Len(); i++ {
			if k < pos+8 {
				return fmt.Sprintf("traj: trajectory %d: %s", i, kind(k-pos))
			}
			pos += 8
			for j := range s.Get(ID(i)).Seq {
				if k < pos+entryBytes {
					return fmt.Sprintf("traj: trajectory %d entry %d: %s", i, j, kind(k-pos))
				}
				pos += entryBytes
			}
		}
		t.Fatalf("cut %d is past the %d-byte encoding", k, len(data))
		return ""
	}
	for k := 0; k < len(data); k++ {
		_, err := ReadStore(bytes.NewReader(data[:k]))
		if err == nil || err.Error() != want(k) {
			t.Fatalf("cut at %d of %d: error %v, want %q", k, len(data), err, want(k))
		}
	}
}

// Property: SplitGaps never loses or reorders entries and every split point
// is a real gap.
func TestSplitGapsProperty(t *testing.T) {
	f := func(deltas []uint16, tts []uint8) bool {
		n := len(deltas)
		if len(tts) < n {
			n = len(tts)
		}
		if n == 0 {
			return true
		}
		seq := make([]Entry, n)
		var tcur int64
		for i := 0; i < n; i++ {
			tcur += int64(deltas[i]%400) + 1
			seq[i] = Entry{Edge: network.EdgeID(i), T: tcur, TT: int32(tts[i]%50) + 1}
			tcur = seq[i].T
		}
		parts := SplitGaps(seq, MaxGap)
		total := 0
		for pi, p := range parts {
			total += len(p)
			for i := 1; i < len(p); i++ {
				if p[i].T > p[i-1].T+int64(p[i-1].TT)+MaxGap {
					return false // gap inside a part
				}
			}
			if pi > 0 {
				prev := parts[pi-1]
				last := prev[len(prev)-1]
				if p[0].T <= last.T+int64(last.TT)+MaxGap {
					return false // split without a gap
				}
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
