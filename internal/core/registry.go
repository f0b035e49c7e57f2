package core

import (
	"fmt"
	"sort"
	"strings"

	"dcg/internal/gating"
	"dcg/internal/usagetrace"
)

// SchemeKind identifies a registered clock-gating methodology by name.
// The constants below are the built-in registrations; ParseScheme,
// scheme construction, capture-channel selection, replay routing, and
// the documentation tables all derive from the one registry.
type SchemeKind string

// The paper's evaluation schemes, the Oracle headroom study, and the
// value-dependent extensions.
const (
	SchemeNone    SchemeKind = "none"
	SchemeDCG     SchemeKind = "dcg"
	SchemePLBOrig SchemeKind = "plb-orig"
	SchemePLBExt  SchemeKind = "plb-ext"
	SchemeOracle  SchemeKind = "oracle"
	SchemeDDCG    SchemeKind = "ddcg"
	SchemeLector  SchemeKind = "lector"
	SchemeDCGDDCG SchemeKind = "dcg+ddcg"
	SchemeDCGPLB  SchemeKind = "dcg+plb"
)

// ReplayCap classifies how a scheme's Result is produced from a captured
// timing. Every registered scheme has a closed-form tally over its
// capture's bit-packed view, so ReplayPacked, the zero value, is the one
// capability; the discovery endpoint reports it.
type ReplayCap int

// ReplayPacked marks evaluation on the word-at-a-time packed kernel.
const ReplayPacked ReplayCap = 0

// String names the capability for the discovery endpoint.
func (c ReplayCap) String() string {
	if c == ReplayPacked {
		return "packed"
	}
	return fmt.Sprintf("replaycap(%d)", int(c))
}

// SchemeInfo is one registry entry: everything the layers above need to
// know about a gating scheme without reaching for its concrete type.
type SchemeInfo struct {
	// Kind is the scheme's unique name.
	Kind SchemeKind

	// Summary is the one-line description rendered into the scheme
	// tables (README, docs/SERVICE.md, GET /v1/schemes).
	Summary string

	// Channels lists the trace channels the scheme requires beyond the
	// implicit usage channel. Capture passes record the union of the
	// requested schemes' channels; replay validates the trace carries
	// them.
	Channels []string

	// Replay is the scheme's replay capability, ReplayPacked for every
	// registered scheme.
	Replay ReplayCap

	// Timing names the registered scheme whose throttle drives the
	// scheme's captures: the scheme itself when it throttles the core
	// (plb-orig, plb-ext), the scheme it throttles identically to when
	// it rides that one's captures (dcg+plb names plb-ext), and none for
	// a timing-neutral scheme, whose captures run unthrottled.
	Timing SchemeKind

	// New constructs a fresh scheme instance for the simulator's
	// machine and tuning parameters.
	New func(s *Simulator) gating.Scheme
}

var schemeRegistry struct {
	order  []SchemeKind
	byKind map[SchemeKind]SchemeInfo
}

// RegisterScheme adds a scheme to the registry. Registration order is
// presentation order (baseline first); duplicate names, empty names,
// unknown channels, nil constructors, and a Timing that names neither the
// scheme itself nor an earlier-registered scheme that is its own throttle
// panic — the registry is assembled at init time and a malformed entry is
// a programming error.
func RegisterScheme(info SchemeInfo) {
	if info.Kind == "" {
		panic("core: RegisterScheme with empty scheme name")
	}
	if info.New == nil {
		panic(fmt.Sprintf("core: scheme %q registered without a constructor", info.Kind))
	}
	if schemeRegistry.byKind == nil {
		schemeRegistry.byKind = make(map[SchemeKind]SchemeInfo)
	}
	if _, dup := schemeRegistry.byKind[info.Kind]; dup {
		panic(fmt.Sprintf("core: scheme %q registered twice", info.Kind))
	}
	for _, ch := range info.Channels {
		known := false
		for _, k := range usagetrace.KnownChannels() {
			if ch == k {
				known = true
			}
		}
		if !known || ch == usagetrace.ChannelUsage {
			panic(fmt.Sprintf("core: scheme %q requires invalid channel %q", info.Kind, ch))
		}
	}
	if info.Timing != "" && info.Timing != info.Kind {
		throttle, ok := schemeRegistry.byKind[info.Timing]
		switch {
		case !ok:
			panic(fmt.Sprintf("core: scheme %q names unregistered throttle %q", info.Kind, info.Timing))
		case throttle.Timing != throttle.Kind:
			panic(fmt.Sprintf("core: scheme %q names %q as its throttle, but %q is not its own throttle",
				info.Kind, info.Timing, info.Timing))
		}
	}
	schemeRegistry.byKind[info.Kind] = info
	schemeRegistry.order = append(schemeRegistry.order, info.Kind)
}

// Schemes returns every registry entry in registration order (baseline
// first).
func Schemes() []SchemeInfo {
	out := make([]SchemeInfo, len(schemeRegistry.order))
	for i, k := range schemeRegistry.order {
		out[i] = schemeRegistry.byKind[k]
	}
	return out
}

// SchemeInfoFor returns the registry entry for a kind.
func SchemeInfoFor(kind SchemeKind) (SchemeInfo, bool) {
	info, ok := schemeRegistry.byKind[kind]
	return info, ok
}

// AllSchemes lists every registered scheme kind, baseline first.
func AllSchemes() []SchemeKind {
	out := make([]SchemeKind, len(schemeRegistry.order))
	copy(out, schemeRegistry.order)
	return out
}

// String returns the scheme name.
func (k SchemeKind) String() string { return string(k) }

// ParseScheme resolves a scheme name to its SchemeKind. The error
// enumerates every registered name.
func ParseScheme(s string) (SchemeKind, error) {
	if _, ok := schemeRegistry.byKind[SchemeKind(s)]; ok {
		return SchemeKind(s), nil
	}
	names := make([]string, len(schemeRegistry.order))
	for i, k := range schemeRegistry.order {
		names[i] = string(k)
	}
	return "", fmt.Errorf("core: unknown scheme %q (want %s)", s, strings.Join(names, "|"))
}

// TimingNeutral reports whether the scheme has no throttle: its gating
// decisions are derived from the issue stage's GRANT signals, per-cycle
// usage, or pure observation, and it never throttles the pipeline, so its
// run is cycle-identical to the baseline's and every such scheme shares
// one unthrottled capture. The PLB family throttles issue width from IPC
// feedback, so its captures run under its throttle (SchemeInfo.Timing).
// Unknown kinds are not neutral.
func TimingNeutral(kind SchemeKind) bool {
	info, ok := schemeRegistry.byKind[kind]
	return ok && info.Timing == ""
}

// SchemeChannels returns the extra trace channels the scheme requires
// (nil for usage-only schemes or unknown kinds). Callers own the slice.
func SchemeChannels(kind SchemeKind) []string {
	info, ok := schemeRegistry.byKind[kind]
	if !ok || len(info.Channels) == 0 {
		return nil
	}
	out := make([]string, len(info.Channels))
	copy(out, info.Channels)
	return out
}

// ChannelUnion merges the extra channels required by a set of schemes
// into a sorted, deduplicated list (nil when every scheme is
// usage-only) — the capture-pass recording set for that scheme set.
func ChannelUnion(kinds ...SchemeKind) []string {
	var out []string
	for _, k := range kinds {
		for _, ch := range SchemeChannels(k) {
			dup := false
			for _, have := range out {
				if have == ch {
					dup = true
				}
			}
			if !dup {
				out = append(out, ch)
			}
		}
	}
	sort.Strings(out)
	return out
}

// ChannelKey canonicalises a channel list for cache keys and artifact
// addresses: sorted, comma-joined, "" for usage-only. Unlike the slice
// forms it is a comparable value, which is what the simrun keys need.
func ChannelKey(channels []string) string {
	if len(channels) == 0 {
		return ""
	}
	sorted := make([]string, len(channels))
	copy(sorted, channels)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}

// SchemeTableMarkdown renders the registry as the canonical markdown
// scheme table embedded in README.md and docs/SERVICE.md (cmd/schemedoc
// checks the embeds against this rendering).
func SchemeTableMarkdown() string {
	var b strings.Builder
	b.WriteString("| Scheme | Capture throttle | Extra channels | Description |\n")
	b.WriteString("|--------|------------------|----------------|-------------|\n")
	for _, info := range Schemes() {
		throttle, channels := "—", "—"
		if info.Timing != "" {
			throttle = "`" + string(info.Timing) + "`"
		}
		if len(info.Channels) > 0 {
			channels = strings.Join(info.Channels, ", ")
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n",
			info.Kind, throttle, channels, info.Summary)
	}
	return b.String()
}

func init() {
	RegisterScheme(SchemeInfo{
		Kind:    SchemeNone,
		Summary: "No clock gating: the all-on baseline every saving is measured against.",
		New:     func(s *Simulator) gating.Scheme { return gating.NewNone(s.machine) },
	})
	RegisterScheme(SchemeInfo{
		Kind: SchemeDCG,
		Summary: "Deterministic clock gating (the paper): issue-stage GRANT signals gate " +
			"units, back-end latches, D-cache decoders, and result buses with zero timing impact.",
		New: func(s *Simulator) gating.Scheme { return gating.NewDCG(s.machine) },
	})
	RegisterScheme(SchemeInfo{
		Kind: SchemePLBOrig,
		Summary: "Pipeline balancing, original variant: IPC-triggered issue-width modes " +
			"gating execution units and the issue queue.",
		Timing: SchemePLBOrig,
		New:    func(s *Simulator) gating.Scheme { return gating.NewPLB(s.machine, gating.DefaultPLBParams(), false) },
	})
	RegisterScheme(SchemeInfo{
		Kind: SchemePLBExt,
		Summary: "Pipeline balancing, extended variant: additionally gates latches, " +
			"D-cache decoders, and result buses per mode.",
		Timing: SchemePLBExt,
		New:    func(s *Simulator) gating.Scheme { return gating.NewPLB(s.machine, gating.DefaultPLBParams(), true) },
	})
	RegisterScheme(SchemeInfo{
		Kind: SchemeOracle,
		Summary: "DCG extended with issue-queue and front-end latch gating under oracle " +
			"knowledge: the headroom bound of sections 2.2/5.7.",
		New: func(s *Simulator) gating.Scheme { return gating.NewOracle(s.machine) },
	})
	RegisterScheme(SchemeInfo{
		Kind: SchemeDDCG,
		Summary: "Data-dependent clock gating: back-end latch slots are clocked only when " +
			"they capture a new value (per-lane comparators; latchvalue trace channel).",
		Channels: []string{usagetrace.ChannelLatchValue},
		New:      func(s *Simulator) gating.Scheme { return gating.NewDDCG(s.machine) },
	})
	RegisterScheme(SchemeInfo{
		Kind: SchemeLector,
		Summary: "Stage-level occupancy gating (LECTOR family): each back-end latch stage " +
			"has one coarse gate with explicit per-gate control overhead.",
		New: func(s *Simulator) gating.Scheme { return gating.NewLector(s.machine) },
	})
	RegisterScheme(SchemeInfo{
		Kind: SchemeDCGDDCG,
		Summary: "DCG with its latch gating tightened to value-change counts: the " +
			"combined schedule-driven + data-dependent upper bound.",
		Channels: []string{usagetrace.ChannelLatchValue},
		New:      func(s *Simulator) gating.Scheme { return gating.NewDCGDDCG(s.machine) },
	})
	RegisterScheme(SchemeInfo{
		Kind: SchemeDCGPLB,
		Summary: "PLB-ext's mode throttling with DCG's schedule-driven gating intersected " +
			"per cycle: gates a structure unless both controllers keep it on.",
		Timing: SchemePLBExt,
		New:    func(s *Simulator) gating.Scheme { return gating.NewDCGPLB(s.machine, gating.DefaultPLBParams()) },
	})
}
