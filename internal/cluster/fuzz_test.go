package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcg/internal/cluster"
	"dcg/internal/sweep"
)

// The op byte of FuzzHubRequests: its value mod 3 (of the low two bits)
// picks the endpoint, and two flag bits shape the running job.
const (
	hubGroup = 1 << 2 // run groupSpec instead of soloSpec
	hubStale = 1 << 3 // w1's lease expires and its item is re-granted to w2
)

var hubPaths = [...]string{"/lease", "/renew", "/complete"}

// hubJob is one job running on a fresh hub, its first item leased to w1.
type hubJob struct {
	hub   *cluster.Hub
	spec  *sweep.Spec
	dir   string
	grant *cluster.LeaseGrant // w1's
	stop  context.CancelFunc
	done  chan *sweep.Summary // RunJob's summary once it returns
}

// startHubJob runs soloSpec or groupSpec through Hub.RunJob, as op asks,
// waits until the hub serves it, and leases its first item to w1; with
// hubStale that lease then expires and the item goes to w2.
func startHubJob(tb testing.TB, op byte) *hubJob {
	tb.Helper()
	clock := newClock()
	j := &hubJob{
		hub:  cluster.NewHub(cluster.HubConfig{LeaseTTL: 10 * time.Second, Backoff: time.Millisecond, Now: clock.Now}),
		spec: soloSpec(),
		dir:  tb.TempDir(),
		done: make(chan *sweep.Summary, 1),
	}
	if op&hubGroup != 0 {
		j.spec = groupSpec()
	}
	ctx, stop := context.WithCancel(context.Background())
	j.stop = stop
	tb.Cleanup(stop) // RunJob returns on a failure path too; done has room for its send
	go func() {
		sum, _ := j.hub.RunJob(ctx, "job", j.dir, j.spec)
		j.done <- sum
	}()
	for j.hub.JobWorkers("job") == nil {
		select {
		case sum := <-j.done:
			tb.Fatalf("job ended before the hub served it: %+v", sum)
		case <-time.After(20 * time.Microsecond):
		}
	}
	g, ok := j.hub.Lease("w1")
	if !ok {
		tb.Fatal("no lease granted for the job's first item")
	}
	j.grant = g
	if op&hubStale != 0 {
		clock.Advance(11 * time.Second)
		if _, ok := j.hub.Lease("w2"); !ok {
			tb.Fatal("expired lease not re-granted")
		}
	}
	return j
}

// finish stops the job and returns RunJob's summary.
func (j *hubJob) finish() *sweep.Summary {
	j.stop()
	return <-j.done
}

// FuzzHubRequests posts arbitrary bodies to the hub handler's /lease,
// /renew and /complete while one job runs (startHubJob). The handler must
// never panic or answer 5xx, and answers only its documented codes: a
// 200 from /lease decodes as a LeaseGrant of the running job, one from
// /renew or /complete as {"status":"ok"}. When a report finishes the
// job, every row of its results.jsonl describes its own item, and the hub
// never remembers a worker name over MaxWorkerName. The corpus is seeded
// with the coordinator tests' okReport and failReport shapes, fresh and
// stale.
func FuzzHubRequests(f *testing.F) {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	seed := startHubJob(f, hubGroup)
	g := seed.grant
	seed.finish()
	follower := *g
	follower.Index = 1
	follower.Key.Scheme = "dcg"

	f.Add(byte(0), marshal(cluster.LeaseRequest{Worker: "w2"}))
	f.Add(byte(0|hubGroup), marshal(cluster.LeaseRequest{Worker: "w1"}))
	f.Add(byte(0), marshal(cluster.LeaseRequest{}))
	renew := cluster.RenewRequest{Worker: "w1", JobID: g.JobID, LeaseID: g.LeaseID, Index: g.Index}
	f.Add(byte(1), marshal(renew))
	f.Add(byte(1|hubStale), marshal(renew))
	renew.JobID = "gone"
	f.Add(byte(1), marshal(renew))
	ok, fail := okReport(g, "w1"), failReport(g, "w1", "boom")
	for _, op := range []byte{2, 2 | hubStale, 2 | hubGroup, 2 | hubGroup | hubStale} {
		f.Add(op, marshal(ok))
		f.Add(op, marshal(fail))
	}
	f.Add(byte(2|hubGroup), marshal(okReport(&follower, "w2")))
	// A row naming another benchmark: before the coordinator checked
	// rows, it was checkpointed as the item's and written to
	// results.jsonl.
	otherRow := okReport(g, "w1")
	otherRow.Result.Bench = "mcf"
	f.Add(byte(2), marshal(otherRow))
	noResult, badStatus, noItem := ok, ok, ok
	noResult.Result = nil
	badStatus.Status = "maybe"
	noItem.Index = 99
	for _, rep := range []cluster.CompleteRequest{noResult, badStatus, noItem} {
		f.Add(byte(2), marshal(rep))
	}
	// A 64 KB worker name: before names were bounded, the hub and the
	// job remembered a name of any length, forever.
	f.Add(byte(0), marshal(cluster.LeaseRequest{Worker: strings.Repeat("w", 64<<10)}))
	f.Add(byte(2), []byte(`{"worker":`))
	f.Add(byte(2), []byte(`{"worker":"`+strings.Repeat("w", 1<<20)+`"}`))

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		path := hubPaths[int(op&3)%len(hubPaths)]
		j := startHubJob(t, op)
		rec := httptest.NewRecorder()
		j.hub.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		for _, name := range j.hub.WorkerNames() {
			if len(name) > cluster.MaxWorkerName {
				t.Fatalf("%s: the hub remembers a %d-byte worker name, over the %d-byte bound", path, len(name), cluster.MaxWorkerName)
			}
		}
		sum := j.finish()

		want := []int{http.StatusOK, http.StatusBadRequest, http.StatusGone}
		if path == "/lease" {
			want = []int{http.StatusOK, http.StatusNoContent, http.StatusBadRequest}
		}
		if !containsCode(want, rec.Code) {
			t.Fatalf("%s: HTTP %d, not one of %v: %s", path, rec.Code, want, rec.Body)
		}
		if rec.Code == http.StatusOK {
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if path == "/lease" {
				var grant cluster.LeaseGrant
				if err := dec.Decode(&grant); err != nil || grant.JobID != "job" || grant.LeaseID == "" ||
					grant.TTLMillis != 10_000 {
					t.Fatalf("/lease: a 200 that is not a grant of the job (%v): %+v", err, grant)
				}
			} else {
				var out map[string]string
				if err := dec.Decode(&out); err != nil || len(out) != 1 || out["status"] != "ok" {
					t.Fatalf("%s: a 200 that is not {\"status\":\"ok\"} (%v): %v", path, err, out)
				}
			}
		}
		if sum != nil && sum.Done {
			checkResultRows(t, j.dir, j.spec)
		}
	})
}

func containsCode(codes []int, code int) bool {
	for _, c := range codes {
		if c == code {
			return true
		}
	}
	return false
}

// checkResultRows fails unless each row of a finished job's results.jsonl
// describes the spec item of its position.
func checkResultRows(t *testing.T, dir string, spec *sweep.Spec) {
	t.Helper()
	items, err := spec.Items()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, sweep.ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 4<<20)
	n := 0
	for ; sc.Scan(); n++ {
		var row sweep.ItemResult
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("results row %d: %v", n, err)
		}
		if n >= len(items) {
			t.Fatalf("results.jsonl holds more rows than the %d items", len(items))
		}
		it := items[n]
		if row.Index != it.Index || row.Bench != it.Key.Bench || row.Scheme != it.Key.Scheme.String() ||
			row.Deep != it.Key.Deep || row.IntALU != it.Key.IntALU || row.Insts != it.Key.Insts ||
			row.Warmup != it.Key.Warmup {
			t.Fatalf("results row %d describes %+v, not item %+v", n, row, it)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(items) {
		t.Fatalf("results.jsonl holds %d rows for %d items", n, len(items))
	}
}
