package snt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"pathhist/internal/network"
	"pathhist/internal/snapio"
	"pathhist/internal/temporal"
	"pathhist/internal/traj"
)

// snapshotFixture builds the lifecycle the tentpole promises to preserve:
// build, extend twice, compact — then the index is snapshotted.
func snapshotFixture(t testing.TB) (*network.Graph, map[string]network.EdgeID, *Index) {
	t.Helper()
	opts := Options{}
	g, ids, s := synthStore(t, 20, 15)
	s.SortByStart()
	n := s.Len()
	ix := Build(g, sliceStore(s, 0, n/2), opts)
	for _, cut := range [][2]int{{n / 2, 3 * n / 4}, {3 * n / 4, n}} {
		next, err := ix.Extend(sliceStore(s, cut[0], cut[1]))
		if err != nil {
			t.Fatal(err)
		}
		ix = next
	}
	compacted, _, err := ix.Compact(CompactionPolicy{TriggerPartitions: -1, MaxMergedRecords: ix.stats.Records/2 + 1})
	if err != nil {
		t.Fatal(err)
	}
	return g, ids, compacted
}

func snapshotBytes(t testing.TB, ix *Index, epoch uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteSnapshot(&buf, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip is the central differential: a loaded snapshot must
// be query-identical and structurally identical to the index that wrote it.
func TestSnapshotRoundTrip(t *testing.T) {
	g, ids, ix := snapshotFixture(t)
	data := snapshotBytes(t, ix, 3)

	loaded, epoch, err := ReadSnapshotBytes(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 {
		t.Fatalf("epoch = %d, want 3", epoch)
	}

	// Exact sample order, ISA ranges and path counts across the query grid.
	assertSameResults(t, ids, ix, loaded, "loaded vs writer")

	// Scalar state.
	if loaded.NumPartitions() != ix.NumPartitions() {
		t.Fatalf("partitions = %d, want %d", loaded.NumPartitions(), ix.NumPartitions())
	}
	lmin, lmax := loaded.TimeRange()
	wmin, wmax := ix.TimeRange()
	if lmin != wmin || lmax != wmax {
		t.Fatalf("time range = [%d,%d], want [%d,%d]", lmin, lmax, wmin, wmax)
	}
	if loaded.Stats() != ix.Stats() {
		t.Fatalf("stats = %+v, want %+v", loaded.Stats(), ix.Stats())
	}
	if loaded.CompactedFrom() != ix.CompactedFrom() || loaded.String() != ix.String() {
		t.Fatalf("String() = %q, want %q", loaded.String(), ix.String())
	}
	if loaded.alphabet != ix.alphabet || loaded.opts != ix.opts {
		t.Fatalf("restored internals differ: %+v vs %+v", loaded.opts, ix.opts)
	}

	// The memory model is a pure function of the structures; equality means
	// every column and directory came back at its exact size.
	if loaded.Memory() != ix.Memory() {
		t.Fatalf("Memory() = %+v, want %+v", loaded.Memory(), ix.Memory())
	}

	// Users container.
	if len(loaded.users) != len(ix.users) {
		t.Fatalf("users = %d, want %d", len(loaded.users), len(ix.users))
	}
	for d := range ix.users {
		if loaded.users[d] != ix.users[d] {
			t.Fatalf("user of trajectory %d = %d, want %d", d, loaded.users[d], ix.users[d])
		}
	}

	// The partition lookup is derived at load, not stored: it must come
	// back equal, nil-ness included.
	if (loaded.part == nil) != (ix.part == nil) || !slices.Equal(loaded.part, ix.part) {
		t.Fatalf("partition lookup %v, writer's %v", loaded.part, ix.part)
	}

	// Frozen columns, bit for bit.
	ix.frozen.Each(func(e network.EdgeID, want *temporal.FrozenIndex) {
		got := loaded.frozen.Get(e)
		if got == nil || got.Len() != want.Len() {
			t.Fatalf("segment %d: missing or wrong length", e)
		}
		if got.Census() != want.Census() {
			t.Fatalf("segment %d: census %v, writer's %v", e, got.Census(), want.Census())
		}
		for i := 0; i < want.Len(); i++ {
			if got.Ts[i] != want.Ts[i] || got.Traj[i] != want.Traj[i] || got.Seq[i] != want.Seq[i] ||
				got.ISA[i] != want.ISA[i] {
				t.Fatalf("segment %d record %d differs", e, i)
			}
		}
	})
	if !slices.Equal(loaded.frozen.Cum, ix.frozen.Cum) || !slices.Equal(loaded.frozen.Start, ix.frozen.Start) {
		t.Fatal("cumulative column differs from the writer's")
	}

	// Formula (2) over the histograms derived from the loaded columns feeds
	// the Acc estimators; spot-check it end to end (the store-recount
	// oracle in tod_test.go checks every bucket).
	iv := PeriodicAround(10*3600, 3600)
	for name, e := range ids {
		sw, okW := todSel(ix, e, iv)
		sl, okL := todSel(loaded, e, iv)
		if okW != okL || sw != sl {
			t.Fatalf("ToD selectivity(%s) = %v/%v, want %v/%v", name, sl, okL, sw, okW)
		}
	}

	// Determinism: the same index snapshots to the same bytes, and the
	// loaded index re-snapshots identically (columns carry no incidental
	// state like map order or spare capacity).
	if !bytes.Equal(data, snapshotBytes(t, ix, 3)) {
		t.Fatal("snapshotting the same index twice produced different bytes")
	}
	if !bytes.Equal(data, snapshotBytes(t, loaded, 3)) {
		t.Fatal("re-snapshotting the loaded index produced different bytes")
	}
}

// TestSnapshotLoadedIndexIsLive: the restored snapshot is a first-class
// index — extending it must behave exactly like extending the writer.
func TestSnapshotLoadedIndexIsLive(t *testing.T) {
	g, ids, ix := snapshotFixture(t)
	data := snapshotBytes(t, ix, 1)
	_, tmax := ix.TimeRange()
	extWriter, err := ix.Extend(sliceStoreShifted(t, ids, tmax+DaySeconds))
	if err != nil {
		t.Fatal(err)
	}
	// Through both readers: a mapped index detaches the columns it extends,
	// and either way the census (recounted at load, not stored) must come
	// out as the writer's.
	for _, read := range []struct {
		name string
		load func() (*Index, uint64, error)
	}{
		{"copied", func() (*Index, uint64, error) { return ReadSnapshotBytes(g, data) }},
		{"mapped", func() (*Index, uint64, error) { return ReadSnapshotMapped(g, data) }},
	} {
		loaded, _, err := read.load()
		if err != nil {
			t.Fatal(err)
		}
		extLoaded, err := loaded.Extend(sliceStoreShifted(t, ids, tmax+DaySeconds))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, ids, extWriter, extLoaded, "extended "+read.name+" load vs extended writer")
		assertCensus(t, loaded, read.name+" load after its Extend")
	}
}

// sliceStoreShifted builds a small deterministic batch starting at t0.
func sliceStoreShifted(t testing.TB, ids map[string]network.EdgeID, t0 int64) *traj.Store {
	t.Helper()
	s := traj.NewStore()
	tcur := t0
	for k := 0; k < 5; k++ {
		seq := []traj.Entry{
			{Edge: ids["A"], T: tcur, TT: 4},
			{Edge: ids["B"], T: tcur + 4, TT: 6},
			{Edge: ids["E"], T: tcur + 10, TT: 5},
		}
		s.Add(traj.UserID(k%3), seq)
		tcur += 120
	}
	return s
}

// corrupt flips one byte at the given offset.
func corrupt(data []byte, off int) []byte {
	out := append([]byte(nil), data...)
	out[off] ^= 0x40
	return out
}

// sections walks the section framing and returns each section's full byte
// range [start, end) — header, payload and padding — in file order.
func sections(t testing.TB, data []byte) [][2]int {
	t.Helper()
	const headerSize, sectionHdrSize = 40, 24
	var out [][2]int
	off := headerSize
	for off < len(data) {
		length := int(binary.LittleEndian.Uint64(data[off+8:]))
		end := off + sectionHdrSize + length + (8-length%8)%8
		out = append(out, [2]int{off, end})
		off = end
	}
	return out
}

// sectionPayloadOffsets returns the file offset of the first payload byte
// of each section, in file order.
func sectionPayloadOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	const sectionHdrSize = 24
	var offs []int
	for _, s := range sections(t, data) {
		offs = append(offs, s[0]+sectionHdrSize)
	}
	return offs
}

// TestSnapshotFailClosed is the corruption table: every damaged byte class
// must surface its distinct wrapped error, never a served index.
func TestSnapshotFailClosed(t *testing.T) {
	g, _, ix := snapshotFixture(t)
	data := snapshotBytes(t, ix, 5)
	offs := sectionPayloadOffsets(t, data)
	if len(offs) != 2+ix.NumPartitions()+1 {
		t.Fatalf("unexpected section count %d", len(offs))
	}

	load := func(b []byte) error {
		_, _, err := ReadSnapshotBytes(g, b)
		return err
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{10, 39, 64, len(data) / 2, len(data) - 1} {
			if err := load(data[:cut]); !errors.Is(err, snapio.ErrTruncated) {
				t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		if err := load(corrupt(data, 0)); !errors.Is(err, snapio.ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[8:], snapio.Version+9)
		if err := load(bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("old version 1", func(t *testing.T) {
		// Format 1 carried two more meta words (tree kind, tree bytes);
		// the copying and the mapped loader both refuse it by version.
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[8:], 1)
		if err := load(bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("copied: err = %v, want ErrVersion", err)
		}
		if _, _, err := ReadSnapshotMapped(g, bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("mapped: err = %v, want ErrVersion", err)
		}
	})
	t.Run("old version 2", func(t *testing.T) {
		// Format 2 stored a per-record partition column (and its presence
		// flag) in every forest segment; format 3 derives the partition
		// from the trajectory id. Both loaders refuse a format-2 file.
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[8:], 2)
		if err := load(bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("copied: err = %v, want ErrVersion", err)
		}
		if _, _, err := ReadSnapshotMapped(g, bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("mapped: err = %v, want ErrVersion", err)
		}
	})
	t.Run("old version 3", func(t *testing.T) {
		// Format 3 stored per-partition time-of-day histograms in a
		// trailing section (and their bucket width and presence flag in the
		// meta section); format 4 derives them. Both loaders refuse a
		// format-3 file.
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[8:], 3)
		if err := load(bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("copied: err = %v, want ErrVersion", err)
		}
		if _, _, err := ReadSnapshotMapped(g, bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("mapped: err = %v, want ErrVersion", err)
		}
	})
	t.Run("old version 4", func(t *testing.T) {
		// Format 4 stored the scan-order word in the meta section; format 5
		// scans newest-first only and drops it. Both loaders refuse a
		// format-4 file.
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[8:], 4)
		if err := load(bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("copied: err = %v, want ErrVersion", err)
		}
		if _, _, err := ReadSnapshotMapped(g, bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("mapped: err = %v, want ErrVersion", err)
		}
	})
	t.Run("old version 5", func(t *testing.T) {
		// Format 5 stored A and TT columns per forest segment and a maximum
		// trajectory duration in the meta section; format 6 keeps one
		// cumulative column instead. Both loaders refuse a format-5 file.
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[8:], 5)
		if err := load(bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("copied: err = %v, want ErrVersion", err)
		}
		if _, _, err := ReadSnapshotMapped(g, bad); !errors.Is(err, snapio.ErrVersion) {
			t.Fatalf("mapped: err = %v, want ErrVersion", err)
		}
	})
	t.Run("bit flip per section", func(t *testing.T) {
		// One flipped payload byte in every section must fail the CRC.
		for i, off := range offs {
			if err := load(corrupt(data, off)); !errors.Is(err, snapio.ErrChecksum) {
				t.Fatalf("section %d: err = %v, want ErrChecksum", i, err)
			}
		}
	})
	t.Run("header partition count disagreement", func(t *testing.T) {
		// Rewrite the header's partition count (and its CRC, so the
		// corruption is semantic, not a checksum failure): the meta section
		// still names the real count, and the loader must notice.
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[24:], uint32(ix.NumPartitions()+1))
		rewriteHeaderCRC(bad)
		if err := load(bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("header epoch disagreement", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(bad[16:], 99)
		rewriteHeaderCRC(bad)
		if err := load(bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("spliced forest section", func(t *testing.T) {
		// The nastiest corruption: a forest section copied whole from a
		// DIFFERENT valid snapshot of the same network. Every per-section
		// CRC checks out, the segment set matches (same routes), but the
		// donor's trajectory ids and ISA positions index structures the
		// host snapshot does not have — serving it would panic (or silently
		// mis-answer) at query time, so the loader must refuse it.
		opts := Options{}
		g2, _, bigStore := synthStore(t, 40, 25) // more trajs than the fixture's
		donor := snapshotBytes(t, Build(g2, bigStore, opts), 5)
		host := append([]byte(nil), data...)
		hs, ds := sections(t, host), sections(t, donor)
		forestIdx := len(hs) - 1 // meta, users, partitions..., forest
		for _, sec := range [][]byte{host[hs[forestIdx][0]:], donor[ds[len(ds)-1][0]:]} {
			if kind := binary.LittleEndian.Uint32(sec); kind != secForest {
				t.Fatalf("last section is kind %d, not the forest", kind)
			}
		}
		spliced := append([]byte(nil), host[:hs[forestIdx][0]]...)
		spliced = append(spliced, donor[ds[len(ds)-1][0]:ds[len(ds)-1][1]]...)
		spliced = append(spliced, host[hs[forestIdx][1]:]...)
		err := load(spliced)
		if !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
	// The rows below write checksum-clean snapshots of a doctored copy of
	// the fixture: every section verifies, only the cross-section meaning
	// is wrong.
	doctored := func(t *testing.T, doctor func(*Index)) []byte {
		t.Helper()
		cp, _, err := ReadSnapshotBytes(g, data)
		if err != nil {
			t.Fatal(err)
		}
		doctor(cp)
		return snapshotBytes(t, cp, 5)
	}
	t.Run("partition trajectory counts disagree with users", func(t *testing.T) {
		// The partition lookup is derived from the partitions' trajectory
		// counts; counts that do not cover the users container exactly
		// would leave it short (a scan indexing past its end) or shift
		// every partition boundary.
		if ix.NumPartitions() < 2 {
			t.Fatalf("fixture has %d partitions, the row needs two", ix.NumPartitions())
		}
		for _, delta := range []int{-1, +1} {
			bad := doctored(t, func(cp *Index) { cp.parts[0].trajs += delta })
			if err := load(bad); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("trajs%+d: err = %v, want ErrSnapshotMismatch", delta, err)
			}
			if _, _, err := ReadSnapshotMapped(g, bad); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("trajs%+d mapped: err = %v, want ErrSnapshotMismatch", delta, err)
			}
		}
	})
	t.Run("ISA outside its trajectory's partition", func(t *testing.T) {
		// One record's ISA is set just past the FM length of the partition
		// its trajectory belongs to, yet inside a larger partition's: only
		// a bound taken through the record's own trajectory refuses it.
		small, large := 0, 1
		if ix.parts[small].fm.Len() > ix.parts[large].fm.Len() {
			small, large = large, small
		}
		bound := ix.parts[small].fm.Len()
		if bound >= ix.parts[large].fm.Len() {
			t.Fatalf("fixture partitions have equal FM lengths %d", bound)
		}
		bad := doctored(t, func(cp *Index) {
			done := false
			cp.frozen = cp.frozen.Rewrite(func(_ network.EdgeID, fx *temporal.FrozenIndex) *temporal.FrozenIndex {
				for i, d := range fx.Traj {
					if !done && cp.partOf(d) == int32(small) {
						isa := append([]int32(nil), fx.ISA...)
						isa[i] = int32(bound)
						done = true
						return fx.WithISA(isa)
					}
				}
				return fx
			})
			if !done {
				t.Fatalf("no record in partition %d", small)
			}
		})
		if err := load(bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
		}
		if _, _, err := ReadSnapshotMapped(g, bad); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("mapped: err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("cumulative column ragged or spliced", func(t *testing.T) {
		// Every sample is read from the cumulative column at offsets taken
		// from Start and a record's Seq, so the loader refuses offsets that
		// do not frame one run per user over the whole column, and records
		// whose Seq falls outside their trajectory's run.
		withColumn := func(doctor func(start, cum []int32) ([]int32, []int32)) func(*Index) {
			return func(cp *Index) {
				nf := *cp.frozen
				nf.Start, nf.Cum = doctor(slices.Clone(nf.Start), slices.Clone(nf.Cum))
				cp.frozen = &nf
			}
		}
		for name, doctor := range map[string]func(start, cum []int32) ([]int32, []int32){
			"one offset short": func(start, cum []int32) ([]int32, []int32) { return start[:len(start)-1], cum },
			"one offset extra": func(start, cum []int32) ([]int32, []int32) {
				return append(start, start[len(start)-1]), cum
			},
			"column longer than its offsets":  func(start, cum []int32) ([]int32, []int32) { return start, append(cum, 0) },
			"column shorter than its offsets": func(start, cum []int32) ([]int32, []int32) { return start, cum[:len(cum)-1] },
			"offsets decrease": func(start, cum []int32) ([]int32, []int32) {
				start[1], start[2] = start[2], start[1]
				return start, cum
			},
			"first trajectory's last record spliced onto the second": func(start, cum []int32) ([]int32, []int32) {
				start[1]--
				return start, cum
			},
		} {
			bad := doctored(t, withColumn(doctor))
			if err := load(bad); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("%s: err = %v, want ErrSnapshotMismatch", name, err)
			}
			if _, _, err := ReadSnapshotMapped(g, bad); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("%s mapped: err = %v, want ErrSnapshotMismatch", name, err)
			}
		}
	})
	t.Run("wrong network", func(t *testing.T) {
		other := network.New()
		if err := func() error {
			_, _, err := ReadSnapshotBytes(other, data)
			return err
		}(); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
		}
	})
}

func rewriteHeaderCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[32:], crc32.Checksum(data[:32], crc32.MakeTable(crc32.Castagnoli)))
}
