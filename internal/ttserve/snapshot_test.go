package ttserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathhist"
)

// TestSnapshotEndpoint: POST /snapshot persists the served index to the
// configured directory, reports what it wrote, and surfaces the outcome in
// /statsz; the written file restores an equivalent engine.
func TestSnapshotEndpoint(t *testing.T) {
	eng, ids := testEngine(t)
	dir := t.TempDir()
	srv := httptest.NewServer(NewServer(eng, Config{EnableExtend: true, SnapshotDir: dir}))
	defer srv.Close()

	// GET is rejected.
	rejectsGET(t, "/snapshot", Config{EnableExtend: true, SnapshotDir: t.TempDir()})

	resp, err := http.Post(srv.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot status = %d", resp.StatusCode)
	}
	var sr SnapshotResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Bytes <= 0 || sr.Epoch != 0 || !strings.HasSuffix(sr.Path, pathhist.SnapshotName(sr.Epoch)) {
		t.Fatalf("snapshot response = %+v", sr)
	}
	fi, err := os.Stat(filepath.Join(dir, pathhist.SnapshotName(sr.Epoch)))
	if err != nil || fi.Size() != sr.Bytes {
		t.Fatalf("snapshot file: %v (size %d, want %d)", err, fi.Size(), sr.Bytes)
	}

	// /statsz reflects the write.
	resp, err = http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SnapshotEpoch != 0 || st.SnapshotBytes != sr.Bytes || st.LastSnapshotUnix == 0 {
		t.Fatalf("statsz snapshot fields = epoch %d bytes %d unix %d",
			st.SnapshotEpoch, st.SnapshotBytes, st.LastSnapshotUnix)
	}

	// The persisted snapshot restores a serving-equivalent engine.
	g, _ := pathhist.PaperExampleNetwork()
	restored, err := pathhist.LoadSnapshotFile(g, sr.Path, pathhist.Options{
		Partition: pathhist.NoPartition, BucketSeconds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := pathhist.Query{Path: pathhist.Path{ids["A"], ids["B"], ids["E"]}, Beta: 2}
	a, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanSeconds != b.MeanSeconds || a.Epoch != b.Epoch {
		t.Fatalf("restored engine disagrees: %v/%d vs %v/%d", a.MeanSeconds, a.Epoch, b.MeanSeconds, b.Epoch)
	}
}

// TestSnapshotEndpointGating: /snapshot only exists behind EnableExtend
// plus a configured directory, and WriteSnapshot without a directory fails.
func TestSnapshotEndpointGating(t *testing.T) {
	eng, _ := testEngine(t)
	for name, cfg := range map[string]Config{
		"no extend": {SnapshotDir: t.TempDir()},
		"no dir":    {EnableExtend: true},
	} {
		srv := httptest.NewServer(NewServer(eng, cfg))
		resp, err := http.Post(srv.URL+"/snapshot", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: POST /snapshot status = %d, want 404", name, resp.StatusCode)
		}
		srv.Close()
	}
	s := NewServer(eng, Config{})
	if _, err := s.WriteSnapshot(); err == nil {
		t.Fatal("WriteSnapshot without a directory succeeded")
	}
}
