package snapio

import (
	"unsafe"

	"pathhist/internal/network"
	"pathhist/internal/traj"
)

// Alignment and size audit for the unsafe bulk-copy path.
//
// rawBytes views a fixed-width integer slice as its in-memory bytes, and
// WriteI32s/ReadI32s (and the I64s/U16s/U64s column codecs) memcpy
// through that view whenever hostLittleEndian holds. The soundness of
// those copies — and of pointing column slices straight into an mmap'd
// snapshot — rests on three properties this file pins at compile time, so
// a port to a new architecture or an edit to an id type fails the build
// instead of corrupting snapshots:
//
//  1. The id types serialized through the ~int32 codecs are exactly 4
//     bytes. The generic constraint already forces the underlying type,
//     but the assertions below keep the wire contract visible and break
//     loudly if an id is ever widened.
//
//  2. Every column element's alignment divides 8. Sections and columns
//     are padded to 8-byte boundaries (alignBuf/alignOff), and mmap bases
//     are page-aligned, so an 8-byte-aligned offset satisfies any element
//     alignment that divides 8. This holds for all fixed-width integers
//     on every port Go has (alignment never exceeds size, and never
//     exceeds 8), but it is the load-bearing fact, so it is asserted, not
//     assumed.
//
//  3. The header and section-header sizes match their documented layouts
//     and are themselves multiples of 8, which is what makes every
//     section payload start 8-byte aligned in the first place.
//
// Byte order is NOT assumed: rawBytes is only reached behind the
// hostLittleEndian runtime check, with a per-element encode/decode
// fallback on big-endian hosts.

// A negative constant converted to uint fails to compile: each line
// asserts its expression is zero.
const (
	_ = uint(-(headerSize % 8))     // header must keep sections 8-byte aligned
	_ = uint(-(sectionHdrSize % 8)) // section header must keep payloads 8-byte aligned
	_ = uint(-(8 % unsafe.Alignof(uint16(0))))
	_ = uint(-(8 % unsafe.Alignof(uint32(0))))
	_ = uint(-(8 % unsafe.Alignof(uint64(0))))
	_ = uint(-(8 % unsafe.Alignof(int32(0))))
	_ = uint(-(8 % unsafe.Alignof(int64(0))))
	_ = uint(-(8 % unsafe.Alignof(traj.ID(0))))
	_ = uint(-(8 % unsafe.Alignof(network.EdgeID(0))))
)

// A size drift in either direction makes one of the paired array lengths
// negative and the package fails to compile.
var (
	_ [unsafe.Sizeof(traj.ID(0)) - 4]struct{}
	_ [4 - unsafe.Sizeof(traj.ID(0))]struct{}
	_ [unsafe.Sizeof(network.EdgeID(0)) - 4]struct{}
	_ [4 - unsafe.Sizeof(network.EdgeID(0))]struct{}
)
