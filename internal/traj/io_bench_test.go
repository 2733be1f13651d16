package traj_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// smallEncoding is SmallConfig's trajectory store and its serialisation.
func smallEncoding(tb testing.TB) (*traj.Store, []byte) {
	tb.Helper()
	s := workload.BuildDataset(workload.SmallConfig()).Store
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return s, buf.Bytes()
}

// TestWriteToDigest pins the wire format byte for byte: the SHA-256 of
// SmallConfig's encoding was recorded from the field-by-field encoder that
// the bulk one replaced, and WriteTo's byte count is the encoding's length.
func TestWriteToDigest(t *testing.T) {
	const want = "ab66bea0c47979b20f32533888a1459f6387a0a84f062e1ced06024e6eea2ef0"
	s, data := smallEncoding(t)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("encoding digest %s, want %s", got, want)
	}
	n, err := s.WriteTo(&bytes.Buffer{})
	if err != nil || n != int64(len(data)) {
		t.Fatalf("WriteTo = %d, %v; encoding is %d bytes", n, err, len(data))
	}
}

func BenchmarkReadStore(b *testing.B) {
	_, data := smallEncoding(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traj.ReadStore(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteStore(b *testing.B) {
	s, data := smallEncoding(b)
	var buf bytes.Buffer
	buf.Grow(len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := s.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
