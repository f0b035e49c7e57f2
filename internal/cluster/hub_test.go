package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcg/internal/cluster"
)

// postLease posts one /lease poll for worker to the hub's handler.
func postLease(t *testing.T, h http.Handler, worker string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(cluster.LeaseRequest{Worker: worker})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/lease", bytes.NewReader(body)))
	return rec
}

// TestHubForgetsSilentWorkers polls a hub running one job with 2000
// distinct worker names. Once they have been silent past the liveness
// window, one more poll leaves the hub remembering only that poller,
// and the job only it and the worker that claimed an item.
func TestHubForgetsSilentWorkers(t *testing.T) {
	clock := newClock()
	hub := cluster.NewHub(cluster.HubConfig{LeaseTTL: 10 * time.Second, Now: clock.Now})
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = hub.RunJob(ctx, "job", t.TempDir(), soloSpec())
	}()
	t.Cleanup(func() { stop(); <-done })
	for hub.JobWorkers("job") == nil {
		time.Sleep(20 * time.Microsecond)
	}

	h := hub.Handler()
	for i := 0; i < 2000; i++ {
		if rec := postLease(t, h, fmt.Sprintf("probe-%04d", i)); rec.Code != http.StatusOK && rec.Code != http.StatusNoContent {
			t.Fatalf("poll %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}
	clock.Advance(31 * time.Second)
	postLease(t, h, "last")

	if got := hub.WorkerNames(); !reflect.DeepEqual(got, []string{"last"}) {
		t.Errorf("hub remembers %d names after the window (first %q), want only the last poller", len(got), got[:min(len(got), 3)])
	}
	var rows []string
	for _, w := range hub.JobWorkers("job") {
		rows = append(rows, w.Name)
	}
	// probe-0000 claimed the job's one item (its lease has expired and
	// the item has gone to the last poller), so it keeps its row.
	if want := []string{"last", "probe-0000"}; !reflect.DeepEqual(rows, want) {
		t.Errorf("job keeps %d worker rows (first %q), want %q", len(rows), rows[:min(len(rows), 3)], want)
	}
}

// TestHubRefusesOverlongWorkerNames: a name over the bound is a 400 that
// states the bound, and the hub does not remember it.
func TestHubRefusesOverlongWorkerNames(t *testing.T) {
	hub := cluster.NewHub(cluster.HubConfig{})
	h := hub.Handler()
	if rec := postLease(t, h, strings.Repeat("w", cluster.MaxWorkerName)); rec.Code != http.StatusNoContent {
		t.Errorf("name at the bound: HTTP %d, want 204 (no work)", rec.Code)
	}
	rec := postLease(t, h, strings.Repeat("w", cluster.MaxWorkerName+1))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), fmt.Sprint(cluster.MaxWorkerName)) {
		t.Errorf("name over the bound: HTTP %d %q, want a 400 stating the %d-byte bound",
			rec.Code, rec.Body, cluster.MaxWorkerName)
	}
	if n := len(hub.WorkerNames()); n != 1 {
		t.Errorf("hub remembers %d names, want only the one at the bound", n)
	}
}
