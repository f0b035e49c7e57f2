package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dcg/internal/core"
)

// File names inside a sweep job directory.
const (
	SpecFile     = "spec.json"      // the spec the job was started with
	ManifestFile = "manifest.jsonl" // append-only checkpoint log
	ResultsFile  = "results.jsonl"  // deterministic final output
)

// ItemResult is one completed sweep point as it appears in
// results.jsonl. It carries only fields that are a deterministic
// function of the item's key — no wall-clock times, no cache outcomes,
// no attempt counts — so an interrupted-and-resumed sweep emits a
// results stream byte-identical to an uninterrupted one.
type ItemResult struct {
	Index  int    `json:"index"`
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	Deep   bool   `json:"deep,omitempty"`
	IntALU int    `json:"int_alu,omitempty"`
	Insts  uint64 `json:"insts"`
	Warmup uint64 `json:"warmup,omitempty"`

	Cycles         uint64  `json:"cycles"`
	IPC            float64 `json:"ipc"`
	AvgPower       float64 `json:"avg_power"`
	BaselinePower  float64 `json:"baseline_power"`
	Saving         float64 `json:"saving"`
	GateViolations uint64  `json:"gate_violations,omitempty"`
}

// NewItemResult projects a simulation result onto the sweep's output
// row. It is exported for the cluster worker, which builds the row on
// the remote side so the coordinator checkpoints exactly what a
// single-node engine would have.
func NewItemResult(it Item, res *core.Result) *ItemResult {
	return &ItemResult{
		Index: it.Index, Bench: it.Key.Bench, Scheme: it.Key.Scheme.String(),
		Deep: it.Key.Deep, IntALU: it.Key.IntALU,
		Insts: it.Key.Insts, Warmup: it.Key.Warmup,
		Cycles: res.Cycles, IPC: res.IPC,
		AvgPower: res.AvgPower, BaselinePower: res.BaselinePower,
		Saving: res.Saving, GateViolations: res.GateViolations,
	}
}

// Record is one manifest line. The first line of a manifest is a header
// record; every later line checkpoints one item attempt. On replay the
// last record per index wins, so a retried item simply appends.
type Record struct {
	Type string `json:"type"` // "header" | "item"

	// Header fields.
	Name     string `json:"name,omitempty"`
	SpecHash string `json:"spec_hash,omitempty"`
	Items    int    `json:"items,omitempty"`

	// Item fields.
	Index    int         `json:"index,omitempty"`
	Status   string      `json:"status,omitempty"` // "ok" | "failed"
	Outcome  string      `json:"outcome,omitempty"`
	Attempts int         `json:"attempts,omitempty"`
	Error    string      `json:"error,omitempty"`
	Result   *ItemResult `json:"result,omitempty"`
}

// Manifest appends fsynced checkpoint records to a job's manifest file.
// One fsync per completed simulation is noise next to the simulation
// itself, and it is what makes kill-anywhere resume sound: a record is
// either durably complete or absent, never torn (a torn final line is
// ignored on replay). Both the in-process engine and the cluster
// coordinator checkpoint through this type.
type Manifest struct {
	mu sync.Mutex
	f  *os.File
}

// createManifest starts a fresh manifest with its header record.
func createManifest(dir string, hdr Record) (*Manifest, error) {
	f, err := os.OpenFile(filepath.Join(dir, ManifestFile),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: creating manifest: %w", err)
	}
	m := &Manifest{f: f}
	hdr.Type = "header"
	if err := m.Append(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

// openManifest reopens an existing manifest for appending.
func openManifest(dir string) (*Manifest, error) {
	f, err := os.OpenFile(filepath.Join(dir, ManifestFile),
		os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening manifest: %w", err)
	}
	return &Manifest{f: f}, nil
}

// Append durably writes one record: encode, write, fsync.
func (m *Manifest) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: encoding manifest record: %w", err)
	}
	line = append(line, '\n')
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.f.Write(line); err != nil {
		return fmt.Errorf("sweep: writing manifest: %w", err)
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("sweep: syncing manifest: %w", err)
	}
	return nil
}

func (m *Manifest) Close() error { return m.f.Close() }

// ReadManifest replays a job's manifest: the header plus the surviving
// (last-wins) record per item index. A torn trailing line — the signature
// of a kill mid-append — is skipped; everything before it is intact
// because every line was fsynced before the next began.
func ReadManifest(dir string) (Record, map[int]Record, error) {
	f, err := os.Open(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Record{}, nil, fmt.Errorf("sweep: %w", err)
	}
	defer f.Close()

	var hdr Record
	items := make(map[int]Record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	first := true
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			// Only a torn final line is tolerable; keep scanning to
			// detect mid-file damage, which is not.
			if sc.Scan() {
				return Record{}, nil, fmt.Errorf("sweep: corrupt manifest record in %s: %w",
					filepath.Join(dir, ManifestFile), err)
			}
			break
		}
		if first {
			if rec.Type != "header" {
				return Record{}, nil, fmt.Errorf("sweep: manifest in %s has no header", dir)
			}
			hdr = rec
			first = false
			continue
		}
		if rec.Type == "item" {
			items[rec.Index] = rec
		}
	}
	if err := sc.Err(); err != nil {
		return Record{}, nil, fmt.Errorf("sweep: reading manifest: %w", err)
	}
	if first {
		return Record{}, nil, fmt.Errorf("sweep: manifest in %s is empty", dir)
	}
	return hdr, items, nil
}

// WriteResults emits the deterministic results stream: one ItemResult
// JSON line per item in index order, written atomically (temp + rename)
// so a partially written results file is never observable. Exported so
// the cluster coordinator finalises jobs byte-identically to the
// engine.
func WriteResults(dir string, results []*ItemResult) error {
	tmp, err := os.CreateTemp(dir, ".results-*")
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	enc := json.NewEncoder(bw)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("sweep: encoding results: %w", err)
		}
	}
	err = bw.Flush()
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, ResultsFile))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing results: %w", err)
	}
	return nil
}

// writeSpec persists the job's spec (atomic, for the resume path).
func writeSpec(dir string, spec *Spec) error {
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encoding spec: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".spec-*")
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	_, err = tmp.Write(append(data, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, SpecFile))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing spec: %w", err)
	}
	return nil
}
