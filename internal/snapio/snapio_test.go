package snapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHeader(Header{Epoch: 7, Partitions: 3, Sections: 2})
	w.Begin(1)
	w.U64(42)
	w.I64(-5)
	w.Bool(true)
	w.I64s([]int64{1, -2, 3})
	w.I32s([]int32{4, -5, 6}) // odd count: exercises padding
	w.U16s([]uint16{7, 8, 9})
	w.End()
	w.Begin(2)
	w.U64s([]uint64{10, 11})
	w.U16s(nil)
	w.End()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len()%8 != 0 {
		t.Fatalf("file length %d not 8-byte aligned", buf.Len())
	}
	if w.Written() != int64(buf.Len()) {
		t.Fatalf("Written() = %d, buffered %d", w.Written(), buf.Len())
	}

	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.Epoch != 7 || h.Partitions != 3 || h.Sections != 2 {
		t.Fatalf("header = %+v", h)
	}
	kind, err := r.Next()
	if err != nil || kind != 1 {
		t.Fatalf("Next = %d, %v", kind, err)
	}
	if v := r.U64(); v != 42 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.I64(); v != -5 {
		t.Fatalf("I64 = %d", v)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if got := r.I64s(); len(got) != 3 || got[1] != -2 {
		t.Fatalf("I64s = %v", got)
	}
	if got := r.I32s(); len(got) != 3 || got[1] != -5 {
		t.Fatalf("I32s = %v", got)
	}
	if got := r.U16s(); len(got) != 3 || got[2] != 9 {
		t.Fatalf("U16s = %v", got)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining %d after full decode", r.Remaining())
	}
	kind, err = r.Next()
	if err != nil || kind != 2 {
		t.Fatalf("Next = %d, %v", kind, err)
	}
	if got := r.U64s(); len(got) != 2 || got[0] != 10 {
		t.Fatalf("U64s = %v", got)
	}
	if got := r.U16s(); got != nil {
		t.Fatalf("U16s = %v, want nil", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last section: %v, want io.EOF", err)
	}
}

func encodeOne(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteHeader(Header{Epoch: 1, Partitions: 1, Sections: 1})
	w.Begin(9)
	w.I64s([]int64{1, 2, 3, 4})
	w.End()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFailClosed(t *testing.T) {
	good := encodeOne(t)

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[0] ^= 0xff
		if _, err := NewReader(data); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(data[8:], Version+1)
		if _, err := NewReader(data); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("old version 1", func(t *testing.T) {
		// A version-1 file has a longer snt meta section; both readers
		// must refuse it at the header instead of mis-parsing it.
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(data[8:], 1)
		for name, open := range map[string]func([]byte) (*Reader, error){"NewReader": NewReader, "NewMappedReader": NewMappedReader} {
			if _, err := open(data); !errors.Is(err, ErrVersion) {
				t.Fatalf("%s: err = %v, want ErrVersion", name, err)
			}
		}
	})
	t.Run("header crc", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[16] ^= 0x01 // epoch byte: covered by header CRC
		if _, err := NewReader(data); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("short header", func(t *testing.T) {
		if _, err := NewReader(good[:headerSize-1]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("payload bit flip", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[len(data)-4] ^= 0x10
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		r, err := NewReader(good[:len(good)-8])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		data := append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0)
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("hostile slice length", func(t *testing.T) {
		// A section whose declared slice length exceeds the payload must
		// fail with ErrTruncated, not attempt the allocation.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.WriteHeader(Header{Sections: 1})
		w.Begin(1)
		w.U64(1 << 60) // slice length with no elements following
		w.End()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		if got := r.I64s(); got != nil {
			t.Fatalf("I64s = %v", got)
		}
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", r.Err())
		}
	})
}
