// Package snapio is the low-level framing of the on-disk index snapshot
// format (DESIGN.md §10): a fixed header followed by a sequence of typed,
// checksummed sections. Everything is little-endian and 8-byte aligned —
// scalar fields are fixed-width, every slice payload starts on an 8-byte
// boundary inside its section, and every section payload starts on an
// 8-byte file offset — so a loader can either read sections sequentially
// (what ReadFile/Reader do) or mmap the file and point column slices
// straight into the mapping.
//
// Integrity is fail-closed: the header carries its own CRC32, every section
// carries a CRC32 of its payload, and each failure mode surfaces as a
// distinct sentinel error (ErrBadMagic, ErrVersion, ErrTruncated,
// ErrChecksum) so callers can report corruption precisely and refuse to
// serve a damaged index.
package snapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores integers the
// way the format does. On such hosts (amd64, arm64, ...) column slices are
// encoded and decoded with single bulk copies — the file bytes are exactly
// the in-memory bytes, which is what makes the format mmap-friendly. The
// per-element encoding/binary path below is the portable fallback, and the
// byte-level result is identical either way.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Magic identifies a pathhist snapshot file (8 bytes).
const Magic = "PHSNAP\x00\x01"

// Version is the current snapshot format version. Readers reject any other
// value: the format is versioned, not self-describing. Version 2 dropped
// the tree kind and modelled tree size from the snt meta section; version 3
// dropped the per-record partition column from every forest segment;
// version 4 dropped the time-of-day histogram section and its meta fields;
// version 5 dropped the scan-order word from the snt meta section.
// An older file is refused, not mis-parsed, and its index must be rebuilt.
const Version uint32 = 5

// Sentinel errors, one per failure mode (wrapped with positional detail).
var (
	// ErrBadMagic means the bytes are not a snapshot file at all.
	ErrBadMagic = errors.New("snapio: bad magic (not a snapshot file)")
	// ErrVersion means the snapshot was written by an incompatible format
	// version.
	ErrVersion = errors.New("snapio: unsupported snapshot format version")
	// ErrTruncated means the file ends (or a section's payload ends) before
	// the structure it declares.
	ErrTruncated = errors.New("snapio: truncated snapshot")
	// ErrChecksum means a header or section CRC32 does not match its bytes.
	ErrChecksum = errors.New("snapio: checksum mismatch")
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	headerSize     = 40 // magic(8) + version(4) + flags(4) + epoch(8) + partitions(4) + sections(4) + crc(4) + pad(4)
	sectionHdrSize = 24 // kind(4) + reserved(4) + length(8) + crc(4) + pad(4)
)

// Header is the snapshot file header. Epoch and Partitions are owned by the
// index layer (snt); snapio only carries them up front so a loader can
// cross-check them against the section contents before trusting anything.
type Header struct {
	Epoch      uint64
	Partitions uint32
	Sections   uint32
}

// Writer emits a snapshot: one header, then Begin/End-framed sections. Each
// section's payload is buffered in memory (one section at a time) so its
// length and CRC can be written ahead of it; errors are sticky and surfaced
// by Close.
type Writer struct {
	w    io.Writer
	err  error
	n    int64
	buf  []byte // current section payload
	kind uint32
	open bool
	hdr  bool
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteHeader writes the file header. It must be called exactly once,
// before the first Begin.
func (w *Writer) WriteHeader(h Header) {
	if w.err != nil {
		return
	}
	if w.hdr || w.open {
		w.err = errors.New("snapio: WriteHeader misuse")
		return
	}
	w.hdr = true
	var b [headerSize]byte
	copy(b[:8], Magic)
	binary.LittleEndian.PutUint32(b[8:], Version)
	binary.LittleEndian.PutUint32(b[12:], 0) // flags, reserved
	binary.LittleEndian.PutUint64(b[16:], h.Epoch)
	binary.LittleEndian.PutUint32(b[24:], h.Partitions)
	binary.LittleEndian.PutUint32(b[28:], h.Sections)
	binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(b[:32], crcTable))
	w.write(b[:])
}

// Begin starts a new section of the given kind.
func (w *Writer) Begin(kind uint32) {
	if w.err != nil {
		return
	}
	if !w.hdr || w.open {
		w.err = errors.New("snapio: Begin misuse")
		return
	}
	w.kind = kind
	w.open = true
	w.buf = w.buf[:0]
}

// End finishes the current section: its header (kind, length, CRC) and the
// payload, padded to the 8-byte file alignment, are written out.
func (w *Writer) End() {
	if w.err != nil {
		return
	}
	if !w.open {
		w.err = errors.New("snapio: End without Begin")
		return
	}
	w.open = false
	var h [sectionHdrSize]byte
	binary.LittleEndian.PutUint32(h[0:], w.kind)
	binary.LittleEndian.PutUint64(h[8:], uint64(len(w.buf)))
	binary.LittleEndian.PutUint32(h[16:], crc32.Checksum(w.buf, crcTable))
	w.write(h[:])
	w.write(w.buf)
	if pad := (8 - len(w.buf)%8) % 8; pad > 0 {
		var zeros [8]byte
		w.write(zeros[:pad])
	}
}

// Close flushes nothing (sections are written eagerly) but reports the
// first error encountered, including a section left open.
func (w *Writer) Close() error {
	if w.err == nil && w.open {
		w.err = errors.New("snapio: Close with open section")
	}
	return w.err
}

// Written returns the number of bytes emitted so far.
func (w *Writer) Written() int64 { return w.n }

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	m, err := w.w.Write(b)
	w.n += int64(m)
	w.err = err
}

// --- payload scalar/slice appenders ---
// Scalars are fixed-width little-endian. Slices are written as a uint64
// element count, padding to realign to 8, then the raw elements. All of
// them keep the payload 8-byte aligned after every slice body.

// U64 appends a uint64.
func (w *Writer) U64(v uint64) {
	if !w.open {
		w.fail("U64 outside section")
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool appends a bool as a full word (alignment-preserving).
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

func (w *Writer) fail(msg string) {
	if w.err == nil {
		w.err = errors.New("snapio: " + msg)
	}
}

// slicePrefix appends the element count.
func (w *Writer) slicePrefix(n int) { w.U64(uint64(n)) }

// alignBuf pads the payload to an 8-byte boundary.
func (w *Writer) alignBuf() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// rawBytes views a fixed-width integer slice as its in-memory bytes (only
// valid for the bulk copies guarded by hostLittleEndian).
func rawBytes[T ~int32 | ~int64 | ~uint16 | ~uint32 | ~uint64](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}

// WriteI32s appends a column of any int32-kinded type (e.g. trajectory
// ids) without an intermediate []int32 copy.
func WriteI32s[T ~int32](w *Writer, v []T) {
	w.slicePrefix(len(v))
	if hostLittleEndian {
		w.buf = append(w.buf, rawBytes(v)...)
	} else {
		for _, x := range v {
			w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(x))
		}
	}
	w.alignBuf()
}

// ReadI32s reads a column written by WriteI32s (or I32s) into any
// int32-kinded element type, without an intermediate []int32 copy.
func ReadI32s[T ~int32](r *Reader) []T {
	n := r.sliceLen(4, "[]int32")
	if r.err != nil || n == 0 {
		r.alignOff()
		return nil
	}
	if v, ok := view[T](r, n); ok {
		r.alignOff()
		return v
	}
	out := make([]T, n)
	if hostLittleEndian {
		r.secOff += copy(rawBytes(out), r.sec[r.secOff:r.secOff+n*4])
	} else {
		for i := range out {
			out[i] = T(binary.LittleEndian.Uint32(r.sec[r.secOff:]))
			r.secOff += 4
		}
	}
	r.alignOff()
	return out
}

// I64s appends a []int64 column.
func (w *Writer) I64s(v []int64) {
	w.slicePrefix(len(v))
	if hostLittleEndian {
		w.buf = append(w.buf, rawBytes(v)...)
		return
	}
	for _, x := range v {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(x))
	}
}

// U64s appends a []uint64 column.
func (w *Writer) U64s(v []uint64) {
	w.slicePrefix(len(v))
	if hostLittleEndian {
		w.buf = append(w.buf, rawBytes(v)...)
		return
	}
	for _, x := range v {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, x)
	}
}

// I32s appends a []int32 column (8-byte padded).
func (w *Writer) I32s(v []int32) { WriteI32s(w, v) }

// U16s appends a []uint16 column (8-byte padded).
func (w *Writer) U16s(v []uint16) {
	w.slicePrefix(len(v))
	if hostLittleEndian {
		w.buf = append(w.buf, rawBytes(v)...)
	} else {
		for _, x := range v {
			w.buf = binary.LittleEndian.AppendUint16(w.buf, x)
		}
	}
	w.alignBuf()
}

// Reader decodes a snapshot from an in-memory byte slice (the whole file;
// loading is dominated by one sequential read). The header is verified at
// construction; Next verifies each section's CRC before exposing its
// payload. Scalar/slice getters use a sticky error — decode a section, then
// check Err once.
type Reader struct {
	data []byte
	off  int
	hdr  Header

	// zeroCopy makes the column getters return sub-slices of data instead
	// of heap copies when the host and alignment allow it (see view). Set
	// for readers over a read-only Mapping: the returned columns alias the
	// mapping and are immutable by contract — writing through them is a
	// fault on unix (PROT_READ) and a data race everywhere.
	zeroCopy bool

	sectionsRead uint32
	sec          []byte
	secOff       int
	kind         uint32
	err          error
}

// NewReader verifies the magic, version and header CRC and positions the
// reader at the first section. Column getters copy out of data; the caller
// owns the returned slices.
func NewReader(data []byte) (*Reader, error) {
	return newReader(data, false)
}

// NewMappedReader is NewReader in zero-copy mode: column getters return
// aligned sub-slices of data (normally a read-only Mapping) instead of heap
// copies, falling back to copies on big-endian hosts or misaligned payloads
// — the byte-level result is identical either way. Every returned column
// must be treated as immutable, and data must stay alive (and mapped) for
// as long as any decoded structure is reachable.
func NewMappedReader(data []byte) (*Reader, error) {
	return newReader(data, true)
}

func newReader(data []byte, zeroCopy bool) (*Reader, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte file, %d-byte header", ErrTruncated, len(data), headerSize)
	}
	if string(data[:8]) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, v, Version)
	}
	if got, want := crc32.Checksum(data[:32], crcTable), binary.LittleEndian.Uint32(data[32:]); got != want {
		return nil, fmt.Errorf("%w: header CRC %08x, stored %08x", ErrChecksum, got, want)
	}
	r := &Reader{data: data, off: headerSize, zeroCopy: zeroCopy}
	r.hdr = Header{
		Epoch:      binary.LittleEndian.Uint64(data[16:]),
		Partitions: binary.LittleEndian.Uint32(data[24:]),
		Sections:   binary.LittleEndian.Uint32(data[28:]),
	}
	return r, nil
}

// Header returns the verified file header.
func (r *Reader) Header() Header { return r.hdr }

// ZeroCopy reports whether the reader is in zero-copy mode (constructed by
// NewMappedReader): column getters may alias the underlying bytes, so every
// structure decoded from it must treat its columns as immutable.
func (r *Reader) ZeroCopy() bool { return r.zeroCopy }

// view returns n elements of the current section payload as a []T aliasing
// the reader's bytes — the zero-copy fast path. It applies only when the
// reader is in zero-copy mode, the host is little-endian (file bytes are
// the in-memory bytes) and the payload happens to be element-aligned; the
// format guarantees 8-byte alignment relative to the file, so for a mapping
// (page-aligned) the alignment check always passes, while an arbitrary heap
// buffer may fail it and fall back to copying. The returned slice has
// cap == len: appending to it reallocates instead of writing through the
// mapping.
func view[T ~int32 | ~int64 | ~uint16 | ~uint32 | ~uint64](r *Reader, n int) ([]T, bool) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if !r.zeroCopy || !hostLittleEndian || n == 0 {
		return nil, false
	}
	p := unsafe.Pointer(&r.sec[r.secOff])
	if uintptr(p)%uintptr(size) != 0 {
		return nil, false
	}
	out := unsafe.Slice((*T)(p), n)
	r.secOff += n * size
	return out, true
}

// Next advances to the next section, verifying its checksum, and returns
// its kind. After the declared section count it returns io.EOF (and
// ErrTruncated if trailing bytes remain — a spliced file is corrupt too).
func (r *Reader) Next() (uint32, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.sectionsRead == r.hdr.Sections {
		if r.off != len(r.data) {
			return 0, fmt.Errorf("%w: %d trailing bytes after last section", ErrTruncated, len(r.data)-r.off)
		}
		return 0, io.EOF
	}
	if len(r.data)-r.off < sectionHdrSize {
		return 0, fmt.Errorf("%w: section %d header", ErrTruncated, r.sectionsRead)
	}
	h := r.data[r.off:]
	kind := binary.LittleEndian.Uint32(h)
	length := binary.LittleEndian.Uint64(h[8:])
	crc := binary.LittleEndian.Uint32(h[16:])
	r.off += sectionHdrSize
	if length > uint64(len(r.data)-r.off) {
		return 0, fmt.Errorf("%w: section %d declares %d payload bytes, %d remain",
			ErrTruncated, r.sectionsRead, length, len(r.data)-r.off)
	}
	payload := r.data[r.off : r.off+int(length)]
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return 0, fmt.Errorf("%w: section %d (kind %d) CRC %08x, stored %08x",
			ErrChecksum, r.sectionsRead, kind, got, crc)
	}
	r.off += int(length)
	if pad := (8 - int(length)%8) % 8; pad > 0 {
		if len(r.data)-r.off < pad {
			return 0, fmt.Errorf("%w: section %d padding", ErrTruncated, r.sectionsRead)
		}
		r.off += pad
	}
	r.sectionsRead++
	r.sec, r.secOff, r.kind = payload, 0, kind
	return kind, nil
}

// Err returns the first decode error of the current section.
func (r *Reader) Err() error { return r.err }

// Remaining returns the unread byte count of the current section payload.
func (r *Reader) Remaining() int { return len(r.sec) - r.secOff }

func (r *Reader) failShort(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s in section kind %d at offset %d", ErrTruncated, what, r.kind, r.secOff)
	}
}

// U64 reads a uint64 scalar.
func (r *Reader) U64() uint64 {
	if r.err != nil || len(r.sec)-r.secOff < 8 {
		r.failShort("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.sec[r.secOff:])
	r.secOff += 8
	return v
}

// I64 reads an int64 scalar.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a non-negative int scalar (stored as a word).
func (r *Reader) Int() int {
	v := r.U64()
	if r.err == nil && v > math.MaxInt64/2 {
		r.err = fmt.Errorf("snapio: int field overflows: %d", v)
	}
	return int(v)
}

// Bool reads a bool (stored as a word).
func (r *Reader) Bool() bool { return r.U64() != 0 }

// sliceLen reads and bounds-checks a slice element count: the declared
// length must fit the remaining payload, so hostile or corrupt lengths fail
// with ErrTruncated instead of attempting a huge allocation.
func (r *Reader) sliceLen(elemSize int, what string) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.sec)-r.secOff)/elemSize) {
		r.failShort(what)
		return 0
	}
	return int(n)
}

func (r *Reader) alignOff() {
	if rem := r.secOff % 8; rem != 0 {
		r.secOff += 8 - rem
	}
}

// I64s reads a []int64 column.
func (r *Reader) I64s() []int64 {
	n := r.sliceLen(8, "[]int64")
	if r.err != nil || n == 0 {
		return nil
	}
	if v, ok := view[int64](r, n); ok {
		return v
	}
	out := make([]int64, n)
	if hostLittleEndian {
		r.secOff += copy(rawBytes(out), r.sec[r.secOff:r.secOff+n*8])
		return out
	}
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(r.sec[r.secOff:]))
		r.secOff += 8
	}
	return out
}

// U64s reads a []uint64 column.
func (r *Reader) U64s() []uint64 {
	n := r.sliceLen(8, "[]uint64")
	if r.err != nil || n == 0 {
		return nil
	}
	if v, ok := view[uint64](r, n); ok {
		return v
	}
	out := make([]uint64, n)
	if hostLittleEndian {
		r.secOff += copy(rawBytes(out), r.sec[r.secOff:r.secOff+n*8])
		return out
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.sec[r.secOff:])
		r.secOff += 8
	}
	return out
}

// I32s reads a []int32 column.
func (r *Reader) I32s() []int32 { return ReadI32s[int32](r) }

// U16s reads a []uint16 column.
func (r *Reader) U16s() []uint16 {
	n := r.sliceLen(2, "[]uint16")
	if r.err != nil || n == 0 {
		r.alignOff()
		return nil
	}
	if v, ok := view[uint16](r, n); ok {
		r.alignOff()
		return v
	}
	out := make([]uint16, n)
	if hostLittleEndian {
		r.secOff += copy(rawBytes(out), r.sec[r.secOff:r.secOff+n*2])
	} else {
		for i := range out {
			out[i] = binary.LittleEndian.Uint16(r.sec[r.secOff:])
			r.secOff += 2
		}
	}
	r.alignOff()
	return out
}
