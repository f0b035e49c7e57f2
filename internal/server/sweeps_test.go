package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcg/internal/sweep"
)

// sweepView mirrors the wire form of a sweep job for test decoding.
type sweepView struct {
	ID      string         `json:"id"`
	Name    string         `json:"name"`
	State   string         `json:"state"`
	Error   string         `json:"error"`
	Summary *sweep.Summary `json:"summary"`
	Status  *sweep.Status  `json:"progress"`
}

func postSweep(t *testing.T, ts *httptest.Server, spec string) (*http.Response, sweepView) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v sweepView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("bad sweep response: %v", err)
		}
	}
	return resp, v
}

func getSweep(t *testing.T, ts *httptest.Server, id string) (*http.Response, sweepView) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v sweepView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("bad sweep status body: %v", err)
		}
	}
	return resp, v
}

// waitSweepState polls a job until it leaves the "running" state.
func waitSweepState(t *testing.T, ts *httptest.Server, id string) sweepView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, v := getSweep(t, ts, id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll for %s: HTTP %d", id, resp.StatusCode)
		}
		if v.State != sweepRunning {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s still running after 10s", id)
	return sweepView{}
}

const sweepSpecJSON = `{
	"name": "api",
	"benchmarks": ["gzip", "mcf"],
	"schemes": ["none", "dcg"],
	"max_insts": 1000
}`

// TestSweepAPIEndToEnd drives a job through submit → poll → results →
// resubmit over HTTP.
func TestSweepAPIEndToEnd(t *testing.T) {
	cr := &countingRunner{}
	s := newFakeServer(Config{Workers: 2, SweepDir: t.TempDir()}, cr.run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, v := postSweep(t, ts, sweepSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	if v.ID == "" || v.Name != "api" {
		t.Fatalf("submit response malformed: %+v", v)
	}

	final := waitSweepState(t, ts, v.ID)
	if final.State != sweepDone {
		t.Fatalf("job finished %q (err %q), want done", final.State, final.Error)
	}
	if final.Summary == nil || final.Summary.Completed != 4 || !final.Summary.Done {
		t.Fatalf("summary wrong: %+v", final.Summary)
	}
	if final.Status == nil || final.Status.OK != 4 || !final.Status.Done {
		t.Fatalf("progress wrong: %+v", final.Status)
	}
	// One capture per benchmark; each benchmark's second scheme replays it.
	if got := cr.runs.Load(); got != 2 {
		t.Fatalf("job ran %d captures, want 2", got)
	}

	// Results stream: one JSONL record per item, in index order.
	res, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", res.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(body.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("results: %d lines, want 4", len(lines))
	}
	for i, line := range lines {
		var ir sweep.ItemResult
		if err := json.Unmarshal([]byte(line), &ir); err != nil {
			t.Fatalf("results line %d: %v", i, err)
		}
		if ir.Index != i || ir.Cycles == 0 {
			t.Fatalf("results line %d malformed: %+v", i, ir)
		}
	}

	// The job shows up in the listing.
	lr, err := ts.Client().Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []sweepView `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != v.ID {
		t.Fatalf("listing wrong: %+v", listing.Jobs)
	}

	// Resubmitting the identical spec addresses the finished job: no new
	// work, 200 rather than 202.
	resp2, v2 := postSweep(t, ts, sweepSpecJSON)
	if resp2.StatusCode != http.StatusOK || v2.ID != v.ID {
		t.Fatalf("resubmit: status %d id %q, want 200 with the same id", resp2.StatusCode, v2.ID)
	}
	if got := cr.runs.Load(); got != 2 {
		t.Fatalf("resubmit re-ran work: %d captures", got)
	}

	if resp, _ := getSweep(t, ts, "no-such-job"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestSweepCancelThenResume: DELETE stops a running job; resubmitting the
// same spec resumes it from the manifest to completion.
func TestSweepCancelThenResume(t *testing.T) {
	cr := &countingRunner{release: make(chan struct{})}
	s := newFakeServer(Config{Workers: 2, SweepDir: t.TempDir()}, cr.run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, v := postSweep(t, ts, sweepSpecJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cr.runs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cr.runs.Load() == 0 {
		t.Fatal("no simulation started within 5s")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+v.ID, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dv sweepView
	json.NewDecoder(dresp.Body).Decode(&dv)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || dv.State != sweepCanceled {
		t.Fatalf("cancel: status %d state %q, want 200 canceled", dresp.StatusCode, dv.State)
	}

	// Unblock the runner and resubmit: the manifest makes it a resume.
	close(cr.release)
	resp2, v2 := postSweep(t, ts, sweepSpecJSON)
	if resp2.StatusCode != http.StatusAccepted || v2.ID != v.ID {
		t.Fatalf("resume submit: status %d id %q", resp2.StatusCode, v2.ID)
	}
	final := waitSweepState(t, ts, v.ID)
	if final.State != sweepDone || final.Status == nil || final.Status.OK != 4 {
		t.Fatalf("resumed job: state %q progress %+v", final.State, final.Status)
	}
}

// TestSweepSubmitValidation: bad specs are rejected before any work.
func TestSweepSubmitValidation(t *testing.T) {
	s := newFakeServer(Config{SweepDir: t.TempDir(), MaxInsts: 10_000}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, spec, want string
	}{
		{"malformed", `{nope`, "parsing"},
		{"unknown field", `{"name":"x","benchmarks":["gzip"],"schemes":["dcg"],"max_insts":1,"surprise":1}`, "unknown field"},
		{"unsafe name", `{"name":"../evil","benchmarks":["gzip"],"schemes":["dcg"],"max_insts":1}`, "must match"},
		{"over limit", `{"name":"big","benchmarks":["gzip"],"schemes":["dcg"],"max_insts":99999999}`, "exceeds"},
		{"unknown bench", `{"name":"x","benchmarks":["quake3"],"schemes":["dcg"],"max_insts":1}`, "unknown benchmark"},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.want)
		}
	}
}

// TestSweepAPIDisabledWithoutDir: without SweepDir the routes are absent.
func TestSweepAPIDisabledWithoutDir(t *testing.T) {
	s := newFakeServer(Config{}, (&countingRunner{}).run)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/sweeps without SweepDir: status %d, want 404", resp.StatusCode)
	}
}

// TestSweepJobSurvivesRestart: a finished job's status and results remain
// addressable from a new server instance over the same sweep directory.
func TestSweepJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cr := &countingRunner{}
	s1 := newFakeServer(Config{Workers: 2, SweepDir: dir}, cr.run)
	ts1 := httptest.NewServer(s1.Handler())
	_, v := postSweep(t, ts1, sweepSpecJSON)
	final := waitSweepState(t, ts1, v.ID)
	if final.State != sweepDone {
		t.Fatalf("first life: state %q", final.State)
	}
	ts1.Close()

	s2 := newFakeServer(Config{Workers: 2, SweepDir: dir}, cr.run)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	resp, got := getSweep(t, ts2, v.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted server: status %d", resp.StatusCode)
	}
	if got.State != sweepDone || got.Status == nil || got.Status.OK != 4 {
		t.Fatalf("restarted server sees %q %+v, want done", got.State, got.Status)
	}
	res, err := ts2.Client().Get(ts2.URL + "/v1/sweeps/" + v.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || len(strings.Split(strings.TrimSpace(body.String()), "\n")) != 4 {
		t.Fatalf("restarted server results: status %d body %q", res.StatusCode, body.String())
	}
	if got := cr.runs.Load(); got != 2 {
		t.Fatalf("restart re-ran work: %d captures", got)
	}
}
