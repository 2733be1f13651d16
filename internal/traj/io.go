package traj

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pathhist/internal/network"
)

// Binary serialisation of a trajectory store. The format is a simple
// length-prefixed little-endian layout:
//
//	magic "NCT1" | uint32 count | per trajectory:
//	  int32 user | uint32 len | per entry: int32 edge, int64 t, int32 tt
//
// Trajectory ids are positional and therefore not stored.

var magic = [4]byte{'N', 'C', 'T', '1'}

// entryBytes is the encoded size of one Entry: int32 edge, int64 t, int32
// tt. ReadStore reads at most chunkEntries entries per call.
const (
	entryBytes   = 16
	chunkEntries = 256
)

// WriteTo serialises the store. Each header and entry is encoded into a
// fixed buffer with binary.LittleEndian, so the encoder makes no call
// through reflection.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(b []byte) error {
		m, err := bw.Write(b)
		n += int64(m)
		return err
	}
	var hdr [8]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.trajs)))
	if err := write(hdr[:]); err != nil {
		return n, err
	}
	var ent [entryBytes]byte
	for i := range s.trajs {
		tr := &s.trajs[i]
		binary.LittleEndian.PutUint32(hdr[:4], uint32(tr.User))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(tr.Seq)))
		if err := write(hdr[:]); err != nil {
			return n, err
		}
		for _, e := range tr.Seq {
			binary.LittleEndian.PutUint32(ent[:4], uint32(e.Edge))
			binary.LittleEndian.PutUint64(ent[4:12], uint64(e.T))
			binary.LittleEndian.PutUint32(ent[12:], uint32(e.TT))
			if err := write(ent[:]); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadStore deserialises a store written by WriteTo. Headers and runs of
// up to chunkEntries entries are read whole with io.ReadFull and decoded
// with binary.LittleEndian. A stream that ends at an entry boundary fails
// with io.EOF and one that ends inside an entry with io.ErrUnexpectedEOF,
// naming the entry either way.
func ReadStore(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return nil, fmt.Errorf("traj: reading magic: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("traj: bad magic %q", hdr[:4])
	}
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return nil, fmt.Errorf("traj: reading count: %w", err)
	}
	count := binary.LittleEndian.Uint32(hdr[:4])
	s := NewStore()
	var chunk [chunkEntries * entryBytes]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("traj: trajectory %d: %w", i, err)
		}
		user := int32(binary.LittleEndian.Uint32(hdr[:4]))
		l := binary.LittleEndian.Uint32(hdr[4:])
		if l == 0 {
			return nil, fmt.Errorf("traj: trajectory %d: empty sequence", i)
		}
		// The length prefix is untrusted (batches arrive over HTTP): grow
		// the sequence incrementally instead of trusting l for one huge
		// up-front allocation — a lying prefix then fails with a short read
		// after at most doubling the bytes actually present.
		seq := make([]Entry, 0, min(l, 4096))
		for j := uint32(0); j < l; {
			b := chunk[:min(l-j, chunkEntries)*entryBytes]
			if m, err := io.ReadFull(br, b); err != nil {
				if err == io.ErrUnexpectedEOF && m%entryBytes == 0 {
					err = io.EOF
				}
				return nil, fmt.Errorf("traj: trajectory %d entry %d: %w", i, j+uint32(m/entryBytes), err)
			}
			for ; len(b) > 0; b = b[entryBytes:] {
				seq = append(seq, Entry{
					Edge: network.EdgeID(int32(binary.LittleEndian.Uint32(b[:4]))),
					T:    int64(binary.LittleEndian.Uint64(b[4:12])),
					TT:   int32(binary.LittleEndian.Uint32(b[12:16])),
				})
				j++
			}
		}
		s.Add(UserID(user), seq)
	}
	return s, nil
}
