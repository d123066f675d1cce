package bfdn_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bfdn"
	"bfdn/internal/server"
)

// TestJobStoreOnDiskFormat pins the job store's on-disk contract: the
// content-addressed IDs of fixed plans — the facade fingerprints of one
// sweep, one asynchronous sweep and one checkpointed exploration, and the
// bfdnd re-marshaled plans of one /v1/sweep and one /v1/asyncsweep
// request — and the exact WAL bytes the facade jobs journal. Stores written
// by earlier builds resume only while these stay fixed, so a failure here
// is a format break, not a refactor.
func TestJobStoreOnDiskFormat(t *testing.T) {
	tr, err := bfdn.GenerateTree(bfdn.FamilyRandom, 40, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	js, err := bfdn.OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := bfdn.SweepContext(ctx, []bfdn.SweepPoint{{Tree: tr, K: 3, Algorithm: bfdn.CTE}}, 1, 5,
		bfdn.WithJobStore(js)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bfdn.SweepAsyncContext(ctx, []bfdn.AsyncSweepPoint{{Tree: tr, Speeds: []float64{1, 2}, Latency: "jitter:0.5"}}, 1, 5,
		bfdn.WithJobStore(js)); err != nil {
		t.Fatal(err)
	}
	if _, err := bfdn.ExploreContext(ctx, tr, 3, bfdn.WithCheckpoint(js, 4)); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(server.New(server.Config{Store: js}).Handler())
	defer ts.Close()
	for _, c := range []struct{ path, body string }{
		{"/v1/sweep", `{"seed":3,"indexBase":2,"timeoutMs":9000,"points":[
			{"family":"random","n":60,"depth":5,"treeSeed":4,"k":2,"algorithm":"bfdnl","ell":2}]}`},
		{"/v1/asyncsweep", `{"seed":3,"points":[
			{"family":"comb","n":60,"depth":5,"treeSeed":4,"speeds":[1,0.5],"algorithm":"potential","latency":"pareto:2"}]}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", c.path, resp.StatusCode, err, data)
		}
	}

	// Keyed by job ID; an empty wal leaves that job's journal unpinned.
	want := map[string]struct{ kind, wal string }{
		"386e321d40f6439a": {"sweep", `{"t":"point","i":0,"report":{"rounds":38,"moves":110,"edgeExplorations":39,"bound":42.4095690650735,"offlineLowerBound":26,"fullyExplored":true,"allAtRoot":true}}` + "\n"},
		"c5f47122b3cd3a78": {"asyncsweep", `{"t":"point","i":0,"report":{"makespan":38.1676141430388,"workDist":[30,56],"events":88,"floor":26,"fullyExplored":true,"allAtRoot":true}}` + "\n"},
		"83fcc804793cd73b": {"explore", `{"t":"report","report":{"rounds":34,"moves":96,"edgeExplorations":39,"bound":174.21670905871858,"offlineLowerBound":26,"fullyExplored":true,"allAtRoot":true}}` + "\n"},
		"9559cff7e86faf09": {"sweep", ""},
		"c0dc2f99e35ef2f2": {"asyncsweep", ""},
	}
	jobs, err := js.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(want) {
		t.Errorf("store holds %d jobs, want %d", len(jobs), len(want))
	}
	for _, j := range jobs {
		w, ok := want[j.ID]
		if !ok || j.Kind != w.kind {
			t.Errorf("unpinned %s job %s: a plan's identity drifted", j.Kind, j.ID)
			continue
		}
		if w.wal == "" {
			continue
		}
		wal, err := os.ReadFile(filepath.Join(js.Store().Dir(), "jobs", j.ID, "wal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if string(wal) != w.wal {
			t.Errorf("%s WAL bytes drifted:\n got %s\nwant %s", j.Kind, wal, w.wal)
		}
	}
}
