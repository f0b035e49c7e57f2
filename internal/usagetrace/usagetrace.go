// Package usagetrace captures the timing pass of a simulation — the
// per-cycle cpu.Usage vectors plus the issue-stage GRANT events — in a
// compact binary stream, so gating and power evaluation can replay the
// execution without re-simulating the core.
//
// The paper's schemes are deterministic and timing-neutral: the baseline,
// DCG (and every DCG ablation), and the Oracle headroom scheme never
// change when instructions issue, so they all see byte-identical usage
// and event streams. Capturing that stream once per (workload,
// machine-timing) turns every additional scheme evaluation into a
// memory-bandwidth replay (internal/core.Simulator.EvaluateTimingAll).
//
// The Recorder captures a run: it encodes the core's events and usage
// vectors and, from the same live values, builds the trace's Packed view
// — per-signal bit-planes plus order-free aggregates — the packed kernel
// reads, so a capture's evaluations never parse the bytes it wrote. A
// capture that no store will persist keeps the view alone
// (NewViewRecorder) and encodes nothing. A stored trace is read back
// through one Reader, which parses its encoded bytes in place: ReadTrace
// builds the same view in one validating pass over them (Trace.Decode
// memoizes it), and the scalar reference engine (ReplayAll), which the
// goldens and the differential fuzzer hold the packed kernel to, hands
// the parsed records to scheme sinks. A stream
// that is not yet a Trace is read whole first: ReadTrace and NewReader
// inflate a gzip-framed one, up to maxInflatedTrace bytes.
//
// # Format (v3, channelized, run-length)
//
// A trace is a set of named channels: per-cycle data families that
// schemes consume independently. The "usage" channel is the classic
// usage-vector + issue-event stream every scheme needs; the optional
// "latchvalue" channel carries the per-stage value-change counts
// (cpu.Usage.BackLatchNewVal) that data-dependent gating schemes (ddcg)
// compare latch inputs against outputs with. The stream is a header
// (with a per-channel table) followed by cycle and repeat records and a
// terminating end marker. All integers are unsigned varints
// (encoding/binary) unless noted; cycle numbers are implicit (the
// records cover the cycles in order, and measured regions always start
// at cycle 0).
//
//	header:  "DCGU" | version byte (3) | name length byte | name |
//	         uvarint channelCount |
//	         per channel: name length byte | channel name | uvarint stages
//	cycle:   0x01 tag | uvarint eventCount | events... | usage |
//	         extra-channel payloads in header order
//	repeat:  0x02 tag | uvarint k (k >= 1)
//	event:   flags byte (bit0 hasFU, bit1 isLoad, bit2 isStore,
//	         bit3 writesReg, bits4-5 FUType) |
//	         [hasFU: uvarint fuIdx, fuStart-cycle, fuLat] |
//	         [isLoad|isStore: uvarint dportCycle-cycle] |
//	         [writesReg: uvarint resultBusCycle-cycle]
//	usage:   uvarint issue, fpIssue, memIssue, intALUBusy, intMultBusy,
//	         fpALUBusy, fpMultBusy, dportUsed, resultBus, commit, fetch |
//	         zigzag varint windowOccupancy delta | uvarint backLatch[stage]...
//	latchvalue: uvarint backLatchNewVal[stage]...
//	end:     0x00 tag | uvarint total cycle count
//
// A repeat record stands for k cycles, each with no issue events and
// exactly the previous cycle's usage vector and channel payloads,
// occupancy included. The Recorder emits one for every event-free cycle
// whose recorded fields equal the previous cycle's, so the quiet stretches
// the core fast-forwards over cost a few bytes each, and the Reader hands
// them back as runs (NextRun) or cycle by cycle (Next). A repeat with a
// zero count or before the first cycle record is corruption, and so is a
// stream that claims more than runBound times the cycles its length could
// hold as plain cycle records: a few bytes may not make the decoder
// allocate for millions of cycles. The Recorder never produces such a
// stream; past the bound it writes cycle records.
//
// The "usage" channel is always present and always first in the table;
// its stages parameter is the machine's gatable back-end latch stage
// count.
//
// Version 2 streams (the same header and cycle records, no repeat
// records) and version 1 streams (header "DCGU" | 1 | nameLen | name |
// uvarint backLatchStages, no channel table, usage-only cycle records)
// are still accepted by the reader, so trace artifacts persisted before
// either bump keep decoding bit-identically; a repeat record in them is
// corruption. The Recorder always emits v3.
//
// Event timing fields are stored as deltas from the event's select cycle
// (they always lie a small, bounded distance in the future — that is the
// paper's determinism property), and window occupancy as a signed delta
// from the previous cycle, so typical cycles encode in a few bytes. The
// end marker carries the cycle count so a truncated or corrupt stream
// fails loudly instead of reading as a shorter run.
package usagetrace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"dcg/internal/config"
	"dcg/internal/cpu"
)

// gzipLevel is the deflate level EncodeGzip writes: the lowest whose
// stored read stays within 5 % of one at gzip's default level 6. It
// deflates the 16 benchmarks' traces about 1.8x faster than level 6 for
// 6 % more bytes, and a stored read of them costs 3 % more (level 4's,
// 6 %); docs/PERFORMANCE.md ("Store deflate level") has the measurements.
const gzipLevel = 5

// Pooled gzip codecs: a sweep runs thousands of captures and
// (store-warm) trace loads, and a fresh inflater or deflater per use
// showed up as steady allocation churn.
var (
	gzipReaderPool sync.Pool
	gzipWriterPool = sync.Pool{New: func() any {
		gz, _ := gzip.NewWriterLevel(io.Discard, gzipLevel) // a valid level never errs
		return gz
	}}
)

// pooledGzipReader resets a pooled inflater onto r (or builds the pool's
// first one). Callers must hand the reader back with putGzipReader.
func pooledGzipReader(r io.Reader) (*gzip.Reader, error) {
	if gz, ok := gzipReaderPool.Get().(*gzip.Reader); ok {
		if err := gz.Reset(r); err != nil {
			gzipReaderPool.Put(gz)
			return nil, err
		}
		return gz, nil
	}
	return gzip.NewReader(r)
}

func putGzipReader(gz *gzip.Reader) { gzipReaderPool.Put(gz) }

const (
	traceMagic    = "DCGU"
	traceVersion  = 3
	traceVersion2 = 2
	traceVersion1 = 1

	tagEnd    = 0x00
	tagCycle  = 0x01
	tagRepeat = 0x02

	flagHasFU     = 1 << 0
	flagIsLoad    = 1 << 1
	flagIsStore   = 1 << 2
	flagWritesReg = 1 << 3
	fuTypeShift   = 4

	// RFC 1952 gzip member header magic, sniffed by the decoders so a
	// compressed trace (EncodeGzip, or a .gz file handed to -replay
	// tooling) decodes transparently.
	gzipMagic0 = 0x1f
	gzipMagic1 = 0x8b

	// maxTraceChannels bounds the v2 header's channel table. The registry
	// defines a handful of channel names; a larger count is corruption.
	maxTraceChannels = 8

	// minRecordBytes is the smallest possible encoding of a cycle record
	// before its per-stage fields: tag, event count, eleven usage uvarints
	// and the occupancy delta, one byte each.
	minRecordBytes = 14

	// runBound is how many times the cycles its length could hold as
	// plain cycle records (recordBytes each) a stream may claim. The
	// packed view keeps about 10 bytes per cycle, so the bound keeps what a
	// stream makes the decoder allocate within a fixed multiple of its
	// size. Real captures stay far below it: the 16 benchmarks at 300k
	// instructions with the latchvalue channel reach at most 6.05 (mcf on
	// the 16-entry-window machine; 6.02 on Table 1, 4.15 on Deep).
	runBound = 32
)

// recordBytes is the smallest encoding of a cycle record, per-stage fields
// included, in a trace with the given latch stages and channels.
func recordBytes(stages int, latchValue bool) uint64 {
	n := minRecordBytes + stages
	if latchValue {
		n += stages
	}
	return uint64(n)
}

// maxCycles is the most cycles a stream of size bytes may claim.
func maxCycles(size, recordBytes uint64) uint64 { return runBound * (size / recordBytes) }

// Channel names. The usage channel is mandatory and always first; extra
// channels are appended in table order to every cycle record.
const (
	// ChannelUsage is the per-cycle usage vector plus issue events —
	// the original v1 payload, implicit in every trace.
	ChannelUsage = "usage"

	// ChannelLatchValue is the per-stage value-change counts
	// (cpu.Usage.BackLatchNewVal): how many latch slots of each back-end
	// stage carried a value different from the slot's previous one.
	// Data-dependent gating schemes (ddcg) require it.
	ChannelLatchValue = "latchvalue"
)

// KnownChannels lists every channel name the codec understands, usage
// first. A header naming any other channel fails the decode loudly.
func KnownChannels() []string { return []string{ChannelUsage, ChannelLatchValue} }

// validExtraChannel reports whether name is a known non-usage channel.
func validExtraChannel(name string) bool { return name == ChannelLatchValue }

// Recorder captures a run into an in-memory Trace. It implements
// cpu.Observer, cpu.QuietObserver and cpu.IssueListener, so a capture
// installs it as the core's observer and issue listener: issue events are
// buffered as they fire and go into the cycle's record when the usage
// vector arrives, preserving the core's events-then-usage delivery order
// for replay.
//
// A cycle with no buffered events whose recorded fields equal the
// previous cycle's extends a pending run, written as one repeat record
// when a cycle that differs (or Trace) ends it. OnCycle and OnQuiet follow
// that one rule, so a fast-forwarded capture writes the bytes a stepped
// one does.
//
// As it encodes, the Recorder builds the trace's packed view from the
// same events and usage vectors, with the builder the decode pass drives
// (Packed.add), so the view equals the one ReadTrace builds from the
// bytes and an in-process capture is never parsed.
//
// A Recorder from NewViewRecorder builds the view alone and encodes
// nothing: no repeat check, no records, no stream. Its Trace carries the
// same view and metadata but no bytes, so it can be evaluated on the
// packed kernel and never stored or re-read (Reader, EncodeGzip and
// WriteTo refuse it). It is for a capture no store will persist.
//
// A view-only Recorder can also stand in front of the core's throttle
// (SetThrottle), summing each cycle's usage under the Limits the throttle
// last returned (Packed.Limits).
//
// The first fault, a cycle out of order or a field the Reader would
// refuse, is latched, and Trace reports it, in either mode.
type Recorder struct {
	name       string
	stages     int
	channels   []string // full channel list, usage first
	latchValue bool

	// viewOnly skips the byte path: buf stays nil and Trace hands back a
	// trace without bytes.
	viewOnly bool

	// buf is the stream encoded so far, and pending the events of the
	// cycle whose usage vector has not arrived yet.
	buf     []byte
	pending []cpu.IssueEvent
	cycles  uint64

	// prev holds the recorded fields of the last cycle record (its
	// latch slices are the Recorder's own copies; the next record's
	// occupancy delta is from its occupancy), and run the cycles repeating
	// it that are not written yet.
	prev cpu.Usage
	run  uint64

	// view is the packed view under construction, and mirror its DCG
	// schedule mirror.
	view   *Packed
	mirror *schedMirror

	throttle cpu.Throttle // nil for an unthrottled capture

	// ports is the machine's D-cache port count (SetDPorts), 0 when not
	// given: the view gets it, with the over-capacity D-port plane, at
	// the first cycle whose D-port use exceeds it.
	ports int

	err error
}

// recordSlack is the free room below which the Recorder doubles its
// buffer before encoding a record; a bigger record still fits, by append.
const recordSlack = 256

// errRecorderDone is latched once Trace has returned the capture.
var errRecorderDone = errors.New("usagetrace: the recorder's trace was already taken")

// NewRecorder starts a v3 capture of the named workload on a machine with
// backLatchStages gatable back-end latch stages. extra names additional
// channels (beyond the implicit usage channel) whose payloads every cycle
// record will carry, e.g. ChannelLatchValue for value-dependent schemes.
// Unknown or duplicated channel names are rejected.
func NewRecorder(name string, backLatchStages int, extra ...string) (*Recorder, error) {
	if len(name) > 255 {
		return nil, fmt.Errorf("usagetrace: workload name too long")
	}
	if backLatchStages < 0 || backLatchStages > config.MaxLatchStages {
		return nil, fmt.Errorf("usagetrace: latch stage count %d out of range [0, %d]", backLatchStages, config.MaxLatchStages)
	}
	channels := make([]string, 0, 1+len(extra))
	channels = append(channels, ChannelUsage)
	for _, ch := range extra {
		if !validExtraChannel(ch) {
			return nil, fmt.Errorf("usagetrace: unknown trace channel %q (known: %v)", ch, KnownChannels())
		}
		if slices.Contains(channels, ch) {
			return nil, fmt.Errorf("usagetrace: duplicate trace channel %q", ch)
		}
		channels = append(channels, ch)
	}
	head := append(make([]byte, 0, 4096), traceMagic...)
	head = append(head, traceVersion, byte(len(name)))
	head = append(head, name...)
	head = binary.AppendUvarint(head, uint64(len(channels)))
	for _, ch := range channels {
		head = append(head, byte(len(ch)))
		head = append(head, ch...)
		head = binary.AppendUvarint(head, uint64(backLatchStages))
	}
	latchValue := slices.Contains(channels, ChannelLatchValue)
	view := newPacked(backLatchStages, latchValue)
	view.grow(growFloorWords)
	return &Recorder{
		name:       name,
		stages:     backLatchStages,
		channels:   channels,
		latchValue: latchValue,
		buf:        head,
		view:       view,
		mirror:     &schedMirror{},
	}, nil
}

// NewViewRecorder is NewRecorder for a capture that keeps only the
// packed view: the Recorder checks every cycle and builds the view as
// NewRecorder's does, but encodes no bytes, and its Trace has none.
func NewViewRecorder(name string, backLatchStages int, extra ...string) (*Recorder, error) {
	r, err := NewRecorder(name, backLatchStages, extra...)
	if err != nil {
		return nil, err
	}
	r.viewOnly, r.buf = true, nil
	return r, nil
}

// SetThrottle puts the Recorder in front of t, which must then be
// installed as the core's throttle in t's place: each cycle's usage is
// summed under the Limits t last returned. A Recorder that encodes bytes
// refuses a throttle, and so fails its capture, since the stream could
// not carry the limits.
func (r *Recorder) SetThrottle(t cpu.Throttle) {
	if !r.viewOnly && r.err == nil {
		r.err = errors.New("usagetrace: a throttled capture must be view-only: the stream has no field for its limits")
	}
	r.throttle = t
}

// SetDPorts gives the Recorder the machine's D-cache port count, so its
// view builds the over-capacity D-port plane from the live usage (the
// core does not cap D-port use at the ports) and never needs the bytes
// for it.
func (r *Recorder) SetDPorts(ports int) { r.ports = ports }

// Limits implements cpu.Throttle: the throttle's Limits, noted for the
// cycles that follow.
func (r *Recorder) Limits(cycle uint64, fb cpu.CycleFeedback) cpu.Limits {
	l := r.throttle.Limits(cycle, fb)
	r.view.setLimits(l)
	return l
}

// QuietLimits implements cpu.QuietThrottle: the throttle's run, which
// keeps the limits last returned; none when it takes no runs.
func (r *Recorder) QuietLimits(cycle, n uint64) uint64 {
	if q, ok := r.throttle.(cpu.QuietThrottle); ok {
		return q.QuietLimits(cycle, n)
	}
	return 0
}

// OnIssue implements cpu.IssueListener: the event is buffered until the
// cycle's usage vector closes the record. An FU grant the Reader would
// refuse (a bad pool, or a unit or latency outside [0, MaxInt32]) fails
// the capture.
func (r *Recorder) OnIssue(ev cpu.IssueEvent) {
	if r.err != nil {
		return
	}
	if ev.FUIdx >= 0 && (ev.FUType < 0 || ev.FUType >= cpu.NumFUTypes ||
		ev.FUIdx > math.MaxInt32 || ev.FULat < 0 || ev.FULat > math.MaxInt32) {
		r.err = fmt.Errorf("usagetrace: corrupt FU grant at cycle %d (pool %d, unit %d, latency %d)",
			r.cycles, ev.FUType, ev.FUIdx, ev.FULat)
		return
	}
	r.pending = append(r.pending, ev)
}

// OnCycle implements cpu.Observer.
func (r *Recorder) OnCycle(u *cpu.Usage) { r.OnQuiet(u, 1) }

// OnQuiet implements cpu.QuietObserver: the run's first cycle carries any
// buffered events and the step to the run's occupancy, and the other n-1
// repeat it. The view takes the whole run at once.
func (r *Recorder) OnQuiet(u *cpu.Usage, n uint64) {
	if n == 0 || r.err != nil {
		return
	}
	if r.err = r.check(u); r.err != nil {
		return
	}
	r.view.reserve(n)
	if r.view.overDPort == nil && r.ports > 0 && u.DPortUsed > r.ports {
		r.view.ports, r.view.overDPort = r.ports, make([]uint64, len(r.view.unitOverSched))
	}
	r.view.add(r.mirror, r.pending, u, n)
	if r.viewOnly {
		r.pending = r.pending[:0]
		r.cycles += n
		return
	}
	if len(r.pending) > 0 || r.cycles == 0 || !r.repeats(u) {
		r.record(u)
		n--
	}
	r.extend(u, n)
}

// check refuses a usage vector the stream cannot record as it stands: a
// cycle out of order, latch stages the trace does not declare, a window
// occupancy outside the view's 16 bits (config.MaxWindowSize), or, in a
// throttled capture, a cycle before the throttle's first Limits.
func (r *Recorder) check(u *cpu.Usage) error {
	switch {
	case r.throttle != nil && r.view.lim < 0:
		return fmt.Errorf("usagetrace: cycle %d arrived before the throttle's first limits", u.Cycle)
	case u.Cycle != r.cycles:
		return fmt.Errorf("usagetrace: non-contiguous cycle %d (expected %d)", u.Cycle, r.cycles)
	case len(u.BackLatch) != r.stages:
		return fmt.Errorf("usagetrace: usage has %d latch stages, trace declares %d", len(u.BackLatch), r.stages)
	case r.latchValue && len(u.BackLatchNewVal) != r.stages:
		return fmt.Errorf("usagetrace: usage has %d latchvalue stages, trace declares %d",
			len(u.BackLatchNewVal), r.stages)
	case u.WindowOccupancy < 0 || u.WindowOccupancy > config.MaxWindowSize:
		return fmt.Errorf("usagetrace: window occupancy %d at cycle %d outside [0, %d]",
			u.WindowOccupancy, u.Cycle, config.MaxWindowSize)
	}
	return nil
}

// extend adds n cycles repeating the previous one, whose fields u holds,
// to the pending run. A cycle the stream's size does not yet let it claim
// (runBound) is written as a cycle record instead.
func (r *Recorder) extend(u *cpu.Usage, n uint64) {
	for n > 0 {
		room := maxCycles(uint64(len(r.buf)), recordBytes(r.stages, r.latchValue)) - r.cycles
		if room == 0 {
			r.record(u)
			n--
			continue
		}
		k := min(n, room)
		r.run += k
		r.cycles += k
		n -= k
	}
}

// repeats reports whether u records the same fields as the previous
// cycle.
func (r *Recorder) repeats(u *cpu.Usage) bool {
	p := &r.prev
	return u.IssueCount == p.IssueCount && u.FPIssueCount == p.FPIssueCount &&
		u.MemIssueCount == p.MemIssueCount && u.IntALUBusy == p.IntALUBusy &&
		u.IntMultBusy == p.IntMultBusy && u.FPALUBusy == p.FPALUBusy &&
		u.FPMultBusy == p.FPMultBusy && u.DPortUsed == p.DPortUsed &&
		u.ResultBus == p.ResultBus && u.CommitCount == p.CommitCount &&
		u.FetchCount == p.FetchCount && u.WindowOccupancy == p.WindowOccupancy &&
		slices.Equal(u.BackLatch, p.BackLatch) &&
		(!r.latchValue || slices.Equal(u.BackLatchNewVal, p.BackLatchNewVal))
}

// record writes the pending run as a repeat record and then u's cycle
// record (buffered events, usage vector, extra channels' payloads), and
// keeps u's fields for the next cycle's repeat check.
func (r *Recorder) record(u *cpu.Usage) {
	b := r.buf
	if cap(b)-len(b) < recordSlack {
		// Double, as append alone would not past a few kilobytes: a
		// capture's stream then moves a handful of times, not dozens.
		b = slices.Grow(b, cap(b))
	}
	if r.run > 0 {
		b = append(b, tagRepeat)
		b = binary.AppendUvarint(b, r.run)
		r.run = 0
	}
	b = append(b, tagCycle)
	b = binary.AppendUvarint(b, uint64(len(r.pending)))
	for i := range r.pending {
		b = appendEvent(b, &r.pending[i], r.cycles)
	}
	b = binary.AppendUvarint(b, uint64(u.IssueCount))
	b = binary.AppendUvarint(b, uint64(u.FPIssueCount))
	b = binary.AppendUvarint(b, uint64(u.MemIssueCount))
	b = binary.AppendUvarint(b, uint64(u.IntALUBusy))
	b = binary.AppendUvarint(b, uint64(u.IntMultBusy))
	b = binary.AppendUvarint(b, uint64(u.FPALUBusy))
	b = binary.AppendUvarint(b, uint64(u.FPMultBusy))
	b = binary.AppendUvarint(b, uint64(u.DPortUsed))
	b = binary.AppendUvarint(b, uint64(u.ResultBus))
	b = binary.AppendUvarint(b, uint64(u.CommitCount))
	b = binary.AppendUvarint(b, uint64(u.FetchCount))
	b = binary.AppendVarint(b, int64(u.WindowOccupancy)-int64(r.prev.WindowOccupancy))
	for _, n := range u.BackLatch {
		b = binary.AppendUvarint(b, uint64(n))
	}
	if r.latchValue {
		for _, n := range u.BackLatchNewVal {
			b = binary.AppendUvarint(b, uint64(n))
		}
	}
	r.buf = b

	latch, newVal := r.prev.BackLatch, r.prev.BackLatchNewVal
	r.prev = *u
	r.prev.BackLatch = append(latch[:0], u.BackLatch...)
	r.prev.BackLatchNewVal = nil
	if r.latchValue {
		r.prev.BackLatchNewVal = append(newVal[:0], u.BackLatchNewVal...)
	}
	r.pending = r.pending[:0]
	r.cycles++
}

// appendEvent encodes one issue event; future cycles are stored as deltas
// from the select cycle.
func appendEvent(b []byte, ev *cpu.IssueEvent, cycle uint64) []byte {
	var flags byte
	if ev.FUIdx >= 0 {
		flags |= flagHasFU | byte(ev.FUType)<<fuTypeShift
	}
	if ev.IsLoad {
		flags |= flagIsLoad
	}
	if ev.IsStore {
		flags |= flagIsStore
	}
	if ev.WritesReg {
		flags |= flagWritesReg
	}
	b = append(b, flags)
	if ev.FUIdx >= 0 {
		b = binary.AppendUvarint(b, uint64(ev.FUIdx))
		b = binary.AppendUvarint(b, ev.FUStart-cycle)
		b = binary.AppendUvarint(b, uint64(ev.FULat))
	}
	if ev.IsLoad || ev.IsStore {
		b = binary.AppendUvarint(b, ev.DPortCycle-cycle)
	}
	if ev.WritesReg {
		b = binary.AppendUvarint(b, ev.ResultBusCycle-cycle)
	}
	return b
}

// Trace writes the pending run and the end marker (tag and total cycle
// count) and returns the completed capture, its packed view already
// built: the trace's first Decode is a reuse. A view-only Recorder
// writes nothing and returns a trace without bytes. Events buffered for
// a cycle whose usage vector never arrived are a capture bug and fail
// it. The Recorder records nothing more after Trace.
func (r *Recorder) Trace() (*Trace, error) {
	if r.err == nil && len(r.pending) > 0 {
		r.err = fmt.Errorf("usagetrace: %d issue events buffered past the last cycle record", len(r.pending))
	}
	if r.err != nil {
		return nil, r.err
	}
	var b []byte
	if !r.viewOnly {
		b = r.buf
		if r.run > 0 {
			b = append(b, tagRepeat)
			b = binary.AppendUvarint(b, r.run)
		}
		b = append(b, tagEnd)
		b = binary.AppendUvarint(b, r.cycles)
		// The trace is held as long as it is cached: keep its bytes at
		// their size, not the doubled buffer's.
		b = bytes.Clone(b)
	}
	r.view.finish(b)
	t := &Trace{name: r.name, stages: r.stages, cycles: r.cycles, channels: r.channels, data: b}
	t.decodeOnce.Do(func() { t.packed = r.view })
	*r = Recorder{err: errRecorderDone}
	return t, nil
}

// Reader decodes a capture stream held in memory, as runs of cycles
// (NextRun) or cycle by cycle (Next). It parses the bytes in place: a
// trace's Reader, its packed decode and its re-reads share the trace's
// encoding without copying it. The usage vector and event slice it
// returns are reused between calls — the same contract the live core
// imposes on its observers.
type Reader struct {
	// data is the stream and pos its next byte; br reads the header, and
	// a malformed field again for the error binary.ReadUvarint gives.
	data []byte
	pos  int
	br   bytes.Reader

	name     string
	version  byte
	stages   int
	channels []string

	hasLatchValue bool

	// limit is the most cycles the stream may claim (maxCycles).
	limit uint64

	u      cpu.Usage
	events []cpu.IssueEvent

	// cycle is the next cycle to return; left counts the cycles of the
	// last record not returned yet (Next returns a run one cycle at a
	// time).
	cycle   uint64
	left    uint64
	lastOcc int64
	done    bool

	// err latches the first fault in the record section being parsed, a
	// malformed field or FU type; the section reports it once, under its
	// own diagnostic.
	err error
}

// NewReader reads the whole stream into memory and parses its header,
// positioning the reader at cycle 0. The stream may be gzip-compressed (as
// written by EncodeGzip): the two gzip magic bytes are sniffed and the
// stream is inflated, at most maxInflatedTrace bytes of it, as ReadTrace
// does.
func NewReader(r io.Reader) (*Reader, error) {
	data, err := load(r)
	if err != nil {
		return nil, err
	}
	return newReader(data)
}

// newReader parses the header of the encoded stream data, which it reads
// in place.
func newReader(data []byte) (*Reader, error) {
	rd := &Reader{data: data}
	br := &rd.br
	br.Reset(data)
	head := make([]byte, len(traceMagic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("usagetrace: short header: %w", err)
	}
	if string(head[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("usagetrace: bad magic %q (not a usage trace)", head[:len(traceMagic)])
	}
	v := head[len(traceMagic)]
	if v < traceVersion1 || v > traceVersion {
		return nil, fmt.Errorf("usagetrace: unsupported version %d (reader speaks %d to %d)",
			v, traceVersion1, traceVersion)
	}
	name := make([]byte, int(head[len(traceMagic)+1]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("usagetrace: short name: %w", err)
	}
	rd.name, rd.version = string(name), v

	if v == traceVersion1 {
		// v1: a bare backLatchStages uvarint, usage channel implicit.
		stages, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("usagetrace: short header (latch stages): %w", err)
		}
		if stages > config.MaxLatchStages {
			return nil, fmt.Errorf("usagetrace: implausible latch stage count %d (limit %d)",
				stages, config.MaxLatchStages)
		}
		rd.stages = int(stages)
		rd.channels = []string{ChannelUsage}
		return rd.start(), nil
	}

	// v2 and v3: a channel table, usage mandatory and first.
	nch, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("usagetrace: short header (channel count): %w", err)
	}
	if nch == 0 {
		return nil, fmt.Errorf("usagetrace: corrupt channel table: no channels (usage is mandatory)")
	}
	if nch > maxTraceChannels {
		return nil, fmt.Errorf("usagetrace: implausible channel count %d (limit %d)", nch, maxTraceChannels)
	}
	rd.channels = make([]string, 0, nch)
	for i := uint64(0); i < nch; i++ {
		nameLen, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("usagetrace: short channel header %d: %w", i, err)
		}
		chName := make([]byte, int(nameLen))
		if _, err := io.ReadFull(br, chName); err != nil {
			return nil, fmt.Errorf("usagetrace: short channel header %d: %w", i, err)
		}
		ch := string(chName)
		stages, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("usagetrace: short channel header %q: %w", ch, err)
		}
		if stages > config.MaxLatchStages {
			return nil, fmt.Errorf("usagetrace: channel %q declares implausible stage count %d (limit %d)",
				ch, stages, config.MaxLatchStages)
		}
		switch {
		case i == 0:
			if ch != ChannelUsage {
				return nil, fmt.Errorf("usagetrace: corrupt channel table: first channel is %q, want %q",
					ch, ChannelUsage)
			}
			rd.stages = int(stages)
		case ch == ChannelUsage:
			return nil, fmt.Errorf("usagetrace: corrupt channel table: duplicate %q channel", ChannelUsage)
		case !validExtraChannel(ch):
			return nil, fmt.Errorf("usagetrace: unknown trace channel %q (known: %v)", ch, KnownChannels())
		case int(stages) != rd.stages:
			return nil, fmt.Errorf("usagetrace: channel %q declares %d stages but usage declares %d",
				ch, stages, rd.stages)
		default:
			for _, have := range rd.channels {
				if have == ch {
					return nil, fmt.Errorf("usagetrace: corrupt channel table: duplicate %q channel", ch)
				}
			}
			if ch == ChannelLatchValue {
				rd.hasLatchValue = true
			}
		}
		rd.channels = append(rd.channels, ch)
	}
	return rd.start(), nil
}

// start sizes the reader's usage buffers and the cycle bound from the
// parsed header, and positions it at the first record.
func (r *Reader) start() *Reader {
	r.pos = len(r.data) - r.br.Len()
	r.limit = maxCycles(uint64(len(r.data)), recordBytes(r.stages, r.hasLatchValue))
	r.u.BackLatch = make([]int, r.stages)
	if r.hasLatchValue {
		r.u.BackLatchNewVal = make([]int, r.stages)
	}
	return r
}

// uvarint reads the next uvarint field. A one-byte field, most of a
// trace's, is read here; a longer one goes to uvarintSlow, kept apart so
// that this path does not pay for its frame.
func (r *Reader) uvarint() uint64 {
	if r.pos < len(r.data) {
		if b := r.data[r.pos]; b < 0x80 {
			r.pos++
			return uint64(b)
		}
	}
	return r.uvarintSlow()
}

// uvarintSlow reads a multi-byte field. A malformed one reads as 0,
// latches the error binary.ReadUvarint gives for it and moves the reader
// to the end of the stream.
func (r *Reader) uvarintSlow() uint64 {
	if v, n := binary.Uvarint(r.data[r.pos:]); n > 0 {
		r.pos += n
		return v
	}
	r.br.Reset(r.data[r.pos:])
	if _, err := binary.ReadUvarint(&r.br); r.err == nil {
		r.err = err
	}
	r.pos = len(r.data)
	return 0
}

// Name returns the traced workload's name.
func (r *Reader) Name() string { return r.name }

// BackLatchStages returns the machine's gatable back-end latch stage
// count (the fixed BackLatch slice length).
func (r *Reader) BackLatchStages() int { return r.stages }

// Channels returns the trace's channel table, usage first. v1 streams
// report the implicit usage-only table.
func (r *Reader) Channels() []string { return r.channels }

// NextRun decodes the next run of n cycles from u.Cycle: a cycle record
// (n is 1, with its issue events in capture order) or a repeat record (n
// cycles, no events, each with usage u). Both results point into buffers
// reused by the following call. A clean end of trace returns io.EOF;
// truncation or corruption returns a descriptive error instead.
func (r *Reader) NextRun() (events []cpu.IssueEvent, u *cpu.Usage, n uint64, err error) {
	if r.left == 0 {
		if events, r.left, err = r.record(); err != nil {
			return nil, nil, 0, err
		}
	}
	n, r.left = r.left, 0
	r.u.Cycle = r.cycle
	r.cycle += n
	return events, &r.u, n, nil
}

// Next decodes the next cycle: its issue events (in capture order) and
// its usage vector, a repeat record's cycles one at a time. Both point
// into buffers reused by the following Next. A clean end of trace returns
// io.EOF; truncation or corruption returns a descriptive error instead.
func (r *Reader) Next() ([]cpu.IssueEvent, *cpu.Usage, error) {
	var events []cpu.IssueEvent
	if r.left == 0 {
		var err error
		if events, r.left, err = r.record(); err != nil {
			return nil, nil, err
		}
	}
	r.left--
	r.u.Cycle = r.cycle
	r.cycle++
	return events, &r.u, nil
}

// record parses the next record into r.u and r.events and returns the
// events and how many cycles the record covers, or io.EOF at a valid end
// marker. A record that would take the stream past r.limit cycles is
// refused.
func (r *Reader) record() ([]cpu.IssueEvent, uint64, error) {
	if r.done {
		return nil, 0, io.EOF
	}
	if r.pos >= len(r.data) {
		return nil, 0, fmt.Errorf("usagetrace: truncated at cycle %d (missing end marker): %w", r.cycle, io.EOF)
	}
	tag := r.data[r.pos]
	r.pos++
	n := uint64(1)
	switch tag {
	case tagEnd:
		declared := r.uvarint()
		if r.err != nil {
			return nil, 0, fmt.Errorf("usagetrace: truncated end marker: %w", r.err)
		}
		if declared != r.cycle {
			return nil, 0, fmt.Errorf("usagetrace: end marker declares %d cycles but %d were read", declared, r.cycle)
		}
		if r.pos != len(r.data) {
			return nil, 0, fmt.Errorf("usagetrace: trailing data after end marker")
		}
		r.done = true
		return nil, 0, io.EOF
	case tagRepeat:
		if r.version < traceVersion {
			return nil, 0, fmt.Errorf("usagetrace: repeat record at cycle %d of a version %d stream", r.cycle, r.version)
		}
		if r.cycle == 0 {
			return nil, 0, fmt.Errorf("usagetrace: repeat record before the first cycle")
		}
		if n = r.uvarint(); r.err != nil {
			return nil, 0, fmt.Errorf("usagetrace: truncated repeat record at cycle %d: %w", r.cycle, r.err)
		}
		if n == 0 || n > math.MaxUint64-r.cycle {
			return nil, 0, fmt.Errorf("usagetrace: corrupt repeat count %d at cycle %d", n, r.cycle)
		}
		r.events = r.events[:0]
	case tagCycle:
		if err := r.cycleRecord(); err != nil {
			return nil, 0, err
		}
	default:
		return nil, 0, fmt.Errorf("usagetrace: corrupt record tag 0x%02x at cycle %d", tag, r.cycle)
	}
	if n > r.limit-r.cycle {
		return nil, 0, fmt.Errorf("usagetrace: implausible cycle count at cycle %d: a %d-byte stream may claim at most %d",
			r.cycle, len(r.data), r.limit)
	}
	return r.events, n, nil
}

// cycleRecord parses a cycle record's body — events, usage vector and
// extra channels — into r.events and r.u. Each section checks the latched
// field error once, and reports it under its own diagnostic.
func (r *Reader) cycleRecord() error {
	nev := r.uvarint()
	if r.err != nil {
		return fmt.Errorf("usagetrace: truncated at cycle %d: %w", r.cycle, r.err)
	}
	if nev > 1<<16 {
		return fmt.Errorf("usagetrace: corrupt event count %d at cycle %d", nev, r.cycle)
	}
	r.events = r.events[:0]
	for i := uint64(0); i < nev && r.err == nil; i++ {
		r.events = append(r.events, cpu.IssueEvent{Cycle: r.cycle, FUIdx: -1})
		r.event(&r.events[i])
	}
	if r.err != nil {
		return fmt.Errorf("usagetrace: truncated event at cycle %d: %w", r.cycle, r.err)
	}

	u := &r.u
	u.IssueCount = int(r.uvarint())
	u.FPIssueCount = int(r.uvarint())
	u.MemIssueCount = int(r.uvarint())
	u.IntALUBusy = uint32(r.uvarint())
	u.IntMultBusy = uint32(r.uvarint())
	u.FPALUBusy = uint32(r.uvarint())
	u.FPMultBusy = uint32(r.uvarint())
	u.DPortUsed = int(r.uvarint())
	u.ResultBus = int(r.uvarint())
	u.CommitCount = int(r.uvarint())
	u.FetchCount = int(r.uvarint())
	zz := r.uvarint() // zigzag occupancy delta
	r.lastOcc += int64(zz>>1) ^ -int64(zz&1)
	u.WindowOccupancy = int(r.lastOcc)
	for s := range u.BackLatch {
		u.BackLatch[s] = int(r.uvarint())
	}
	if r.err != nil {
		return fmt.Errorf("usagetrace: truncated usage at cycle %d: %w", r.cycle, r.err)
	}
	if r.lastOcc < 0 || r.lastOcc > config.MaxWindowSize {
		return fmt.Errorf("usagetrace: corrupt window occupancy %d at cycle %d (limit %d)",
			r.lastOcc, r.cycle, config.MaxWindowSize)
	}
	if r.hasLatchValue {
		for s := range u.BackLatchNewVal {
			u.BackLatchNewVal[s] = int(r.uvarint())
		}
		if r.err != nil {
			return fmt.Errorf("usagetrace: truncated latchvalue at cycle %d: %w", r.cycle, r.err)
		}
	}
	return nil
}

// event decodes one issue event of the current cycle into ev, which holds
// the cycle and no FU. A bad FU type, or a unit index or latency past
// int32 (no Recorder records one), latches r.err.
func (r *Reader) event(ev *cpu.IssueEvent) {
	if r.pos >= len(r.data) {
		r.err = io.EOF
		return
	}
	flags := r.data[r.pos]
	r.pos++
	if flags&flagHasFU != 0 {
		ev.FUType = cpu.FUType(flags >> fuTypeShift)
		if ev.FUType >= cpu.NumFUTypes {
			r.err = fmt.Errorf("corrupt FU type %d", ev.FUType)
			return
		}
		idx := r.uvarint()
		ev.FUStart = r.cycle + r.uvarint()
		lat := r.uvarint()
		if idx > math.MaxInt32 || lat > math.MaxInt32 {
			r.err = fmt.Errorf("corrupt FU grant (unit %d, latency %d)", idx, lat)
			return
		}
		ev.FUIdx, ev.FULat = int(idx), int(lat)
	}
	ev.IsLoad = flags&flagIsLoad != 0
	ev.IsStore = flags&flagIsStore != 0
	if ev.IsLoad || ev.IsStore {
		ev.DPortCycle = r.cycle + r.uvarint()
	}
	if flags&flagWritesReg != 0 {
		ev.WritesReg = true
		ev.ResultBusCycle = r.cycle + r.uvarint()
	}
}

// Sink is one consumer of a replay: a scheme's issue listener plus its
// per-cycle observer chain. Either half may be nil.
type Sink struct {
	Issue cpu.IssueListener
	Cycle cpu.Observer
}

// ReplayAll streams the trace through every sink in a single pass, in
// the core's delivery order: each cycle's issue events strictly before
// its usage vector. A repeat record reaches each sink's observer as one
// run, in one OnQuiet call when the observer takes runs
// (cpu.QuietObserver) and as n OnCycle calls otherwise, exactly as the
// live core hands over the cycles it fast-forwards. Each sink observes
// the sequence the live core delivered, so per-sink results are
// bit-identical to one-at-a-time replays; the fusion only shares the
// parse across sinks. The usage vector passed to the observers is reused
// between cycles (the live core's contract); sinks must not retain it.
// It returns the replayed cycle count.
func ReplayAll(r *Reader, sinks ...Sink) (uint64, error) {
	var cycles uint64
	for {
		events, u, n, err := r.NextRun()
		if err == io.EOF {
			return cycles, nil
		}
		if err != nil {
			return cycles, err
		}
		for _, s := range sinks {
			if s.Issue == nil {
				continue
			}
			for i := range events {
				s.Issue.OnIssue(events[i])
			}
		}
		for _, s := range sinks {
			switch {
			case s.Cycle == nil:
			case n == 1:
				s.Cycle.OnCycle(u)
			default:
				cpu.ObserveQuiet(s.Cycle, u, n)
			}
		}
		cycles += n
	}
}
