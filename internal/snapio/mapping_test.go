package snapio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// writeTestSnapshot encodes one snapshot with a single section holding an
// int64 and a uint16 column, returning the file bytes and the values
// written.
func writeTestSnapshot(t *testing.T) ([]byte, []int64, []uint16) {
	t.Helper()
	i64s := []int64{-5, 0, 7, 1 << 40}
	u16s := []uint16{9, 8, 7, 6, 5}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHeader(Header{Epoch: 11, Partitions: 1, Sections: 1})
	w.Begin(1)
	w.I64s(i64s)
	w.U16s(u16s)
	w.End()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), i64s, u16s
}

// aliases reports whether slice s points into block.
func aliases[T any](s []T, block []byte) bool {
	if len(s) == 0 || len(block) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(block)))
	return p >= lo && p < lo+uintptr(len(block))
}

// TestMappedReaderZeroCopy: a NewMappedReader decodes columns as views into
// the backing bytes — same values as the copying reader, but aliasing the
// buffer instead of fresh heap memory.
func TestMappedReaderZeroCopy(t *testing.T) {
	data, i64s, u16s := writeTestSnapshot(t)

	for _, mode := range []string{"copied", "mapped"} {
		var r *Reader
		var err error
		if mode == "mapped" {
			r, err = NewMappedReader(data)
		} else {
			r, err = NewReader(data)
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got, want := r.ZeroCopy(), mode == "mapped"; got != want {
			t.Fatalf("%s: ZeroCopy() = %v", mode, got)
		}
		if _, err := r.Next(); err != nil {
			t.Fatalf("%s: Next: %v", mode, err)
		}
		gi := r.I64s()
		gu16 := r.U16s()
		if err := r.Err(); err != nil {
			t.Fatalf("%s: decode: %v", mode, err)
		}
		for i := range i64s {
			if gi[i] != i64s[i] {
				t.Fatalf("%s: I64s[%d] = %d, want %d", mode, i, gi[i], i64s[i])
			}
		}
		for i := range u16s {
			if gu16[i] != u16s[i] {
				t.Fatalf("%s: U16s[%d] = %d, want %d", mode, i, gu16[i], u16s[i])
			}
		}
		wantAlias := mode == "mapped" && hostLittleEndian
		if aliases(gi, data) != wantAlias || aliases(gu16, data) != wantAlias {
			t.Fatalf("%s: aliasing = %v/%v, want both %v", mode,
				aliases(gi, data), aliases(gu16, data), wantAlias)
		}
		// A view must have no spare capacity: appending to it reallocates
		// instead of writing past the column into the mapping.
		if wantAlias && (cap(gi) != len(gi) || cap(gu16) != len(gu16)) {
			t.Fatalf("view capacity exceeds length: %d/%d %d/%d",
				cap(gi), len(gi), cap(gu16), len(gu16))
		}
	}
}

// TestMappedReaderChecksum: the mapped reader verifies section CRCs exactly
// like the copying one — corruption fails closed before any view is handed
// out.
func TestMappedReaderChecksum(t *testing.T) {
	data, _, _ := writeTestSnapshot(t)
	bad := append([]byte(nil), data...)
	bad[headerSize+sectionHdrSize+3] ^= 0x10 // flip one payload bit
	r, err := NewMappedReader(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("corrupt section decoded under a mapped reader")
	}
}

// TestMapFile: the file-backed store round-trips bytes, reports its mode and
// path, serves a mapped reader, and closes cleanly (idempotently).
func TestMapFile(t *testing.T) {
	data, i64s, _ := writeTestSnapshot(t)
	path := filepath.Join(t.TempDir(), "snap.snt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Path() != path {
		t.Fatalf("Path() = %q, want %q", m.Path(), path)
	}
	if !bytes.Equal(m.Data(), data) {
		t.Fatal("mapped bytes differ from the file")
	}
	r, err := NewMappedReader(m.Data())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got := r.I64s()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(i64s) || got[0] != i64s[0] {
		t.Fatalf("decoded %v, want %v", got, i64s)
	}
	if m.Mapped() != aliases(got, m.Data()) && hostLittleEndian {
		t.Fatalf("Mapped() = %v but view aliasing = %v", m.Mapped(), aliases(got, m.Data()))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Data() != nil {
		t.Fatal("Data() non-nil after Close")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Empty files map to an empty, unmapped store; missing files fail.
	empty := filepath.Join(t.TempDir(), "empty.snt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	me, err := MapFile(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(me.Data()) != 0 || me.Mapped() {
		t.Fatalf("empty file: %d bytes, mapped %v", len(me.Data()), me.Mapped())
	}
	if err := me.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := MapFile(filepath.Join(t.TempDir(), "nope.snt")); err == nil {
		t.Fatal("missing file mapped")
	}
}
