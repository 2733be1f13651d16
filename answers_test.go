package pathhist_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pathhist"
	"pathhist/internal/sharded"
	"pathhist/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/answers.golden from the current code")

const answersGolden = "testdata/answers.golden"

// answerRow is one engine's answers, digested: answer covers what a client
// reads (histogram buckets, the point estimate, each final sub-query's
// sample count and mean), effort the work counters (index scans, memo
// hits), which may move with a cache policy while answers must not.
type answerRow struct {
	name           string
	answer, effort hash.Hash
}

func newAnswerRow(name string) *answerRow {
	return &answerRow{name: name, answer: sha256.New(), effort: sha256.New()}
}

// add digests one answer; the sub-estimates' histograms are left out, as
// the convolved histogram covers them.
func (r *answerRow) add(res *pathhist.Result) {
	putHist(r.answer, res.Histogram, len(res.Subs))
	putFloat(r.answer, res.MeanSeconds)
	putInt(r.answer, len(res.Subs))
	for _, s := range res.Subs {
		putInt(r.answer, s.Samples)
		putFloat(r.answer, s.MeanTT)
	}
	putInt(r.effort, res.IndexScans)
	putInt(r.effort, res.CacheHits)
}

func (r *answerRow) line() string {
	return fmt.Sprintf("%s answer=%x effort=%x\n", r.name, r.answer.Sum(nil), r.effort.Sum(nil))
}

func putInt(h hash.Hash, v int) { _ = binary.Write(h, binary.LittleEndian, int64(v)) }

func putFloat(h hash.Hash, v float64) { _ = binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }

// putHist digests every bucket a convolution of k histograms can fill: the
// stored buckets start at the sum of the operands' first buckets, which is
// at most k below Min's bucket, and end at or before Max's bucket.
func putHist(h hash.Hash, hg *pathhist.Histogram, k int) {
	if hg == nil {
		putInt(h, -1)
		return
	}
	w := hg.BucketWidth()
	putInt(h, w)
	putInt(h, hg.Min())
	putInt(h, hg.Max())
	putFloat(h, hg.Total())
	for b := max(0, hg.Min()/w-k); b <= hg.Max()/w; b++ {
		putFloat(h, hg.Count(b*w))
	}
}

// TestAnswerFingerprints pins the answers of every engine layout to
// testdata/answers.golden: one partition, weekly partitions, the CSS-Fast
// estimator with both caches, a copy-loaded and a mapped snapshot of the
// one-partition engine, and a two-shard cluster. The queries are the root
// benchmarks' set at β 2 and 20, without and with the user filter, run in
// that order on one engine per row; no query excludes its own trajectory,
// which the cluster does not support. Two more question sets run on fresh
// one-partition and weekly-partition engines only: the same questions with
// each excluding its own trajectory, and fixed intervals of four weeks
// around each trip, without and with the user filter. A change that moves
// any answer bit fails here; rewrite the file with -update only when the
// change means to.
func TestAnswerFingerprints(t *testing.T) {
	cfg := workload.SmallConfig()
	ds := workload.BuildDataset(cfg)
	qs := ds.MakeQueries(0.05, 5, cfg.Seed+1)
	var questions, excluding, fixed []pathhist.Query
	for _, beta := range []int{2, 20} {
		for _, filter := range []bool{false, true} {
			for _, q := range qs {
				pq := pathhist.Query{
					Path: q.Path, Periodic: true, Around: q.T0, Beta: beta,
					FilterUser: filter, User: q.User,
				}
				questions = append(questions, pq)
				pq.Exclude, pq.ExcludeTraj = true, q.Traj
				excluding = append(excluding, pq)
			}
		}
	}
	const fourteenDays = 14 * 86400
	for _, filter := range []bool{false, true} {
		for _, q := range qs {
			fixed = append(fixed, pathhist.Query{
				Path: q.Path, From: q.T0 - fourteenDays, Until: q.T0 + fourteenDays, Beta: 20,
				FilterUser: filter, User: q.User,
			})
		}
	}

	newEngine := func(opts pathhist.Options) *pathhist.Engine {
		t.Helper()
		eng, err := pathhist.NewEngine(ds.G, ds.Store, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng
	}
	one := newEngine(pathhist.Options{})
	st, err := one.SnapshotFileIn(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	copied, err := pathhist.LoadSnapshotFile(ds.G, st.Path, pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(copied.Close)
	mapped, err := pathhist.LoadSnapshotFileMapped(ds.G, st.Path, pathhist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mapped.Close)

	var got bytes.Buffer
	runRow := func(name string, eng *pathhist.Engine, qs []pathhist.Query) {
		t.Helper()
		row := newAnswerRow(name)
		for _, q := range qs {
			res, err := eng.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			row.add(res)
		}
		got.WriteString(row.line())
	}
	for _, e := range []struct {
		name string
		eng  *pathhist.Engine
	}{
		{"one-partition", one},
		{"partition-days-7", newEngine(pathhist.Options{PartitionDays: 7})},
		{"css-fast-cached", newEngine(pathhist.Options{Estimator: pathhist.EstimatorCSSFast})},
		{"snapshot-copied", copied},
		{"snapshot-mapped", mapped},
	} {
		runRow(e.name, e.eng, questions)
	}
	for _, e := range []struct {
		name string
		opts pathhist.Options
	}{
		{"one-partition", pathhist.Options{}},
		{"partition-days-7", pathhist.Options{PartitionDays: 7}},
	} {
		runRow(e.name+"-exclude-self", newEngine(e.opts), excluding)
		runRow(e.name+"-fixed", newEngine(e.opts), fixed)
	}

	cluster, err := sharded.Build(ds.G, ds.Store.Slice(0, ds.Store.Len()),
		sharded.Config{Shards: 2, Opts: pathhist.Options{Estimator: pathhist.EstimatorOff}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	row := newAnswerRow("sharded-2")
	for _, q := range questions {
		res, err := cluster.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("sharded: %v", err)
		}
		if res.Partial {
			t.Fatalf("sharded: partial answer, missing shards %v", res.Missing)
		}
		subs := make([]pathhist.SubEstimate, len(res.Subs))
		for i := range res.Subs {
			subs[i] = pathhist.SubEstimate{Samples: res.Subs[i].N, MeanTT: res.Subs[i].MeanX()}
		}
		row.add(&pathhist.Result{Histogram: res.Hist, MeanSeconds: res.MeanSeconds, Subs: subs,
			IndexScans: res.IndexScans, CacheHits: res.CacheHits})
	}
	got.WriteString(row.line())

	if *update {
		if err := os.WriteFile(filepath.FromSlash(answersGolden), got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(answersGolden))
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestAnswerFingerprints -update .)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("answers differ from %s:\ngot:\n%swant:\n%s", answersGolden, got.Bytes(), want)
	}
}
