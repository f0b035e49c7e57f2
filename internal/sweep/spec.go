// Package sweep is the parameter-sweep orchestration subsystem: it
// expands a declarative sweep specification (benchmarks × gating schemes
// × machine configurations) into a deterministic work DAG, executes it on
// a bounded worker pool through the shared simrun executor, checkpoints
// every completed item to an fsynced manifest so a killed sweep resumes
// without redoing finished work, and streams results as JSON lines.
//
// The DAG encodes the capture-once/replay-many structure of the
// simulator: the schemes of one simrun.TimingKey — (workload, machine,
// trace channels, capture throttle) — share one cycle-accurate timing
// capture, so the first such item is the group's leader and the remaining
// schemes only fan out (as cheap trace replays) after the leader has
// captured.
//
// cmd/dcgsweep drives the engine from the command line; internal/server
// exposes it as the asynchronous /v1/sweeps API; internal/experiments
// prefetches its figure suites through the same scheduler.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"

	"dcg/internal/config"
	"dcg/internal/core"
	"dcg/internal/simrun"
	"dcg/internal/workload"
)

// MachineSpec selects one processor configuration of a sweep, in the
// axes the paper varies: pipeline depth (section 5.6) and integer-ALU
// count (section 4.4). The zero value is the baseline Table 1 machine.
type MachineSpec struct {
	// Deep selects the 20-stage pipeline.
	Deep bool `json:"deep,omitempty"`
	// IntALU overrides the integer-ALU count when > 0; it must lie in
	// [0, config.MaxPoolUnits].
	IntALU int `json:"int_alu,omitempty"`
}

// Rule excludes sweep points. Every set field must match for a point to
// be excluded; unset fields match anything. (E.g. {"scheme":"plb-orig",
// "deep":true} drops PLB-orig from deep-pipeline machines only.)
type Rule struct {
	Bench  string `json:"bench,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	Deep   *bool  `json:"deep,omitempty"`
	IntALU *int   `json:"int_alu,omitempty"`
}

// matches reports whether the rule excludes the given point.
func (r Rule) matches(bench, scheme string, m MachineSpec) bool {
	if r.Bench != "" && r.Bench != bench {
		return false
	}
	if r.Scheme != "" && r.Scheme != scheme {
		return false
	}
	if r.Deep != nil && *r.Deep != m.Deep {
		return false
	}
	if r.IntALU != nil && *r.IntALU != m.IntALU {
		return false
	}
	return true
}

// Spec declares one parameter sweep: the cross product of benchmarks,
// schemes and machines at a fixed instruction budget, minus any excluded
// points. Specs are plain JSON files (see docs/SWEEPS.md).
type Spec struct {
	// Name labels the sweep in manifests, logs and job listings.
	Name string `json:"name"`

	// Benchmarks lists built-in benchmark names (workload.Names()).
	Benchmarks []string `json:"benchmarks"`

	// Schemes lists gating schemes by registered name (core.AllSchemes;
	// GET /v1/schemes on a running dcgserve enumerates them).
	Schemes []string `json:"schemes"`

	// Machines lists processor configurations (default: one baseline).
	Machines []MachineSpec `json:"machines,omitempty"`

	// MaxInsts is the measured dynamic instruction count per run.
	MaxInsts uint64 `json:"max_insts"`

	// Warmup is the functional warm-up length (0 = simulator default).
	Warmup uint64 `json:"warmup,omitempty"`

	// Exclude drops matching sweep points from the cross product.
	Exclude []Rule `json:"exclude,omitempty"`
}

// Load reads and validates a spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a spec from JSON bytes.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// namePattern keeps spec names safe to embed in directory names and job
// IDs: no separators, no leading dot.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// Validate checks the spec against the simulator's vocabulary.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("sweep: spec has no name")
	}
	if !namePattern.MatchString(s.Name) {
		return fmt.Errorf("sweep: spec name %q must match %s", s.Name, namePattern)
	}
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("sweep: spec %q lists no benchmarks", s.Name)
	}
	for _, b := range s.Benchmarks {
		if _, ok := workload.ByName(b); !ok {
			return fmt.Errorf("sweep: spec %q: unknown benchmark %q", s.Name, b)
		}
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("sweep: spec %q lists no schemes", s.Name)
	}
	for _, sch := range s.Schemes {
		if _, err := core.ParseScheme(sch); err != nil {
			return fmt.Errorf("sweep: spec %q: %w", s.Name, err)
		}
	}
	if s.MaxInsts == 0 {
		return fmt.Errorf("sweep: spec %q: max_insts must be positive", s.Name)
	}
	for _, m := range s.Machines {
		if m.IntALU < 0 || m.IntALU > config.MaxPoolUnits {
			return fmt.Errorf("sweep: spec %q: machine int_alu %d out of range [0, %d]", s.Name, m.IntALU, config.MaxPoolUnits)
		}
	}
	for _, r := range s.Exclude {
		if r.Scheme != "" {
			if _, err := core.ParseScheme(r.Scheme); err != nil {
				return fmt.Errorf("sweep: spec %q exclude rule: %w", s.Name, err)
			}
		}
	}
	return nil
}

// Hash is the canonical digest of the spec: the SHA-256 of its
// normalised JSON encoding. The resume path refuses a manifest whose
// recorded hash differs, so a sweep can never silently resume under an
// edited spec.
func (s *Spec) Hash() string {
	norm := *s
	if len(norm.Machines) == 0 {
		norm.Machines = []MachineSpec{{}}
	}
	data, err := json.Marshal(&norm)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on a validated spec.
		panic(fmt.Sprintf("sweep: hashing spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Item is one point of the expanded sweep. Index is the item's position
// in the deterministic expansion order, stable across processes: the
// manifest and the results stream are both keyed by it.
type Item struct {
	Index int
	Key   simrun.Key
}

// Items expands the spec into its deterministic work list: benchmarks
// outermost, then machines, then schemes — so all schemes of one
// (workload, machine) are adjacent, which is also the DAG's timing-group
// structure. Excluded points are skipped before indices are assigned.
func (s *Spec) Items() ([]Item, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	machines := s.Machines
	if len(machines) == 0 {
		machines = []MachineSpec{{}}
	}
	var items []Item
	for _, b := range s.Benchmarks {
		for _, m := range machines {
			for _, sch := range s.Schemes {
				if s.excluded(b, sch, m) {
					continue
				}
				kind, err := core.ParseScheme(sch)
				if err != nil {
					return nil, err // unreachable after Validate
				}
				items = append(items, Item{
					Index: len(items),
					Key: simrun.Key{
						Bench: b, Scheme: kind, Deep: m.Deep, IntALU: m.IntALU,
						Insts: s.MaxInsts, Warmup: s.Warmup,
					},
				})
			}
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("sweep: spec %q: exclusion rules left no items", s.Name)
	}
	return items, nil
}

func (s *Spec) excluded(bench, scheme string, m MachineSpec) bool {
	for _, r := range s.Exclude {
		if r.matches(bench, scheme, m) {
			return true
		}
	}
	return false
}
