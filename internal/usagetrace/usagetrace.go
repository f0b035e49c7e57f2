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
// Two consumers read a stored trace, and both parse its encoded bytes in
// memory through one Reader, which reads them in place. The scalar engine
// (ReplayAll) hands the parsed records to scheme sinks; it needs no
// decoded form. The packed kernel reads a Packed view — per-signal
// bit-planes plus order-free aggregates — that one pass over the bytes
// builds (Trace.Decode, memoized; ReadTrace builds it while validating).
// A stream that is not yet a Trace is read whole first: ReadTrace and
// NewReader inflate a gzip-framed one, up to maxInflatedTrace bytes.
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
// occupancy included. The Writer emits one for every event-free cycle
// whose recorded fields equal the previous cycle's, so the quiet stretches
// the core fast-forwards over cost a few bytes each, and the Reader hands
// them back as runs (NextRun) or cycle by cycle (Next). A repeat with a
// zero count or before the first cycle record is corruption, and so is a
// stream that claims more than runBound times the cycles its length could
// hold as plain cycle records: a few bytes may not make the decoder
// allocate for millions of cycles. The Writer never produces such a
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
// corruption. The writer always emits v3.
//
// Event timing fields are stored as deltas from the event's select cycle
// (they always lie a small, bounded distance in the future — that is the
// paper's determinism property), and window occupancy as a signed delta
// from the previous cycle, so typical cycles encode in a few bytes. The
// end marker carries the cycle count so a truncated or corrupt stream
// fails loudly instead of reading as a shorter run.
package usagetrace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"dcg/internal/cpu"
)

// Pooled gzip codecs and encode scratch: a sweep runs thousands of
// captures and (store-warm) trace loads, and a fresh inflater or a
// regrown encode buffer per use showed up as steady allocation churn.
// The pools hand grown buffers from one capture/load to the next.
var (
	gzipReaderPool sync.Pool
	gzipWriterPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	scratchPool    = sync.Pool{New: func() any { return &encodeScratch{buf: make([]byte, 0, 256)} }}
)

// encodeScratch is a Writer's reusable encode state: the record build
// buffer appendEvent/OnCycle encode into, the pending issue-event buffer,
// and the previous cycle's latch counts the repeat check compares against.
// Handed back to scratchPool by Close.
type encodeScratch struct {
	buf     []byte
	pending []cpu.IssueEvent
	latch   []int
	newVal  []int
}

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

	// maxLatchStages bounds the header's back-end latch stage count. The
	// value is untrusted input sized per cycle record and per reader
	// buffer, and a machine has a few latch stages, not thousands — a
	// larger count is corruption, refused before it sizes any allocation.
	maxLatchStages = 4096

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

// Writer serialises a capture stream. It implements cpu.Observer,
// cpu.QuietObserver and cpu.IssueListener, so a capturing run installs it
// (via the cpu fan-out types) next to the power accountant and the gating
// scheme: issue events are buffered as they fire and flushed into the
// cycle's record when the usage vector arrives, preserving the core's
// events-then-usage delivery order for replay.
//
// A cycle with no buffered events whose recorded fields equal the
// previous cycle's extends a pending run, written as one repeat record
// when a cycle that differs (or Close) ends it. OnCycle and OnQuiet follow
// that one rule, so a fast-forwarded capture writes the bytes a stepped
// one does.
//
// Errors from the underlying writer are latched; Close (or Err) surfaces
// the first one.
type Writer struct {
	w        *bufio.Writer
	name     string
	stages   int
	channels []string // full channel list, usage first

	hasLatchValue bool

	pending []cpu.IssueEvent
	scratch []byte
	sc      *encodeScratch // pool token backing pending/scratch/prev's latches
	cycles  uint64

	// prev holds the recorded fields of the last cycle record (its
	// latch slices are the Writer's own copies; the next record's
	// occupancy delta is from its occupancy), run the cycles repeating
	// it that are not written yet, and size the bytes written so far,
	// which bounds the cycles the stream may claim.
	prev cpu.Usage
	run  uint64
	size uint64

	err    error
	closed bool
}

// NewWriter writes the v3 header for a trace of the named workload on a
// machine with backLatchStages gatable back-end latch stages. extra
// names additional channels (beyond the implicit usage channel) whose
// payloads every cycle record will carry, e.g. ChannelLatchValue for
// value-dependent schemes. Unknown or duplicated channel names are
// rejected.
func NewWriter(w io.Writer, name string, backLatchStages int, extra ...string) (*Writer, error) {
	if len(name) > 255 {
		return nil, fmt.Errorf("usagetrace: workload name too long")
	}
	if backLatchStages < 0 {
		return nil, fmt.Errorf("usagetrace: negative latch stage count")
	}
	channels := make([]string, 0, 1+len(extra))
	channels = append(channels, ChannelUsage)
	hasLatchValue := false
	for _, ch := range extra {
		if !validExtraChannel(ch) {
			return nil, fmt.Errorf("usagetrace: unknown trace channel %q (known: %v)", ch, KnownChannels())
		}
		for _, have := range channels {
			if have == ch {
				return nil, fmt.Errorf("usagetrace: duplicate trace channel %q", ch)
			}
		}
		channels = append(channels, ch)
		if ch == ChannelLatchValue {
			hasLatchValue = true
		}
	}
	sc := scratchPool.Get().(*encodeScratch)
	head := append(sc.buf[:0], traceMagic...)
	head = append(head, traceVersion, byte(len(name)))
	head = append(head, name...)
	head = binary.AppendUvarint(head, uint64(len(channels)))
	for _, ch := range channels {
		head = append(head, byte(len(ch)))
		head = append(head, ch...)
		head = binary.AppendUvarint(head, uint64(backLatchStages))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(head); err != nil {
		scratchPool.Put(sc)
		return nil, err
	}
	t := &Writer{
		w:             bw,
		name:          name,
		stages:        backLatchStages,
		channels:      channels,
		hasLatchValue: hasLatchValue,
		scratch:       head[:0],
		pending:       sc.pending[:0],
		sc:            sc,
		size:          uint64(len(head)),
	}
	t.prev.BackLatch = sc.latch[:0]
	if hasLatchValue {
		t.prev.BackLatchNewVal = sc.newVal[:0]
	}
	return t, nil
}

// OnIssue implements cpu.IssueListener: the event is buffered until the
// cycle's usage vector closes the record.
func (t *Writer) OnIssue(ev cpu.IssueEvent) {
	if t.err != nil || t.closed {
		return
	}
	t.pending = append(t.pending, ev)
}

// OnCycle implements cpu.Observer: it extends the pending run when the
// cycle repeats the previous one, and otherwise writes the run and then
// the cycle record (buffered events first, then the usage vector).
func (t *Writer) OnCycle(u *cpu.Usage) {
	if t.err != nil || t.closed {
		return
	}
	if u.Cycle != t.cycles {
		t.err = fmt.Errorf("usagetrace: non-contiguous cycle %d (expected %d)", u.Cycle, t.cycles)
		return
	}
	if len(t.pending) == 0 && t.cycles > 0 && t.repeats(u) {
		t.extend(u, 1)
		return
	}
	t.record(u)
}

// OnQuiet implements cpu.QuietObserver: the run's first cycle goes
// through OnCycle (it carries any buffered events and the step to the
// run's occupancy), and the other n-1 repeat it.
func (t *Writer) OnQuiet(u *cpu.Usage, n uint64) {
	if n == 0 {
		return
	}
	t.OnCycle(u)
	t.extend(u, n-1)
}

// extend adds n cycles repeating the previous one, whose fields u holds,
// to the pending run. A cycle the stream's size does not yet let it claim
// (runBound) is written as a cycle record instead.
func (t *Writer) extend(u *cpu.Usage, n uint64) {
	for n > 0 && t.err == nil && !t.closed {
		room := maxCycles(t.size, recordBytes(t.stages, t.hasLatchValue)) - t.cycles
		if room == 0 {
			t.record(u)
			n--
			continue
		}
		k := min(n, room)
		t.run += k
		t.cycles += k
		n -= k
	}
}

// repeats reports whether u records the same fields as the previous
// cycle.
func (t *Writer) repeats(u *cpu.Usage) bool {
	p := &t.prev
	return u.IssueCount == p.IssueCount && u.FPIssueCount == p.FPIssueCount &&
		u.MemIssueCount == p.MemIssueCount && u.IntALUBusy == p.IntALUBusy &&
		u.IntMultBusy == p.IntMultBusy && u.FPALUBusy == p.FPALUBusy &&
		u.FPMultBusy == p.FPMultBusy && u.DPortUsed == p.DPortUsed &&
		u.ResultBus == p.ResultBus && u.CommitCount == p.CommitCount &&
		u.FetchCount == p.FetchCount && u.WindowOccupancy == p.WindowOccupancy &&
		slices.Equal(u.BackLatch, p.BackLatch) &&
		(!t.hasLatchValue || slices.Equal(u.BackLatchNewVal, p.BackLatchNewVal))
}

// record writes the pending run and then u's cycle record, and keeps u's
// fields for the next cycle's repeat check.
func (t *Writer) record(u *cpu.Usage) {
	if !t.flushRun() || !t.encode(u) || !t.write(t.scratch) {
		return
	}
	latch, newVal := t.prev.BackLatch, t.prev.BackLatchNewVal
	t.prev = *u
	t.prev.BackLatch = append(latch[:0], u.BackLatch...)
	t.prev.BackLatchNewVal = nil
	if t.hasLatchValue {
		t.prev.BackLatchNewVal = append(newVal[:0], u.BackLatchNewVal...)
	}
	t.pending = t.pending[:0]
	t.cycles++
}

// flushRun writes the pending run as a repeat record.
func (t *Writer) flushRun() bool {
	if t.run == 0 {
		return true
	}
	b := append(t.scratch[:0], tagRepeat)
	b = binary.AppendUvarint(b, t.run)
	t.scratch = b
	t.run = 0
	return t.write(b)
}

// write hands b to the buffered writer, counting its bytes.
func (t *Writer) write(b []byte) bool {
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return false
	}
	t.size += uint64(len(b))
	return true
}

// encode builds u's cycle record in t.scratch: the buffered events, the
// usage vector and the extra channels' payloads. It latches an error and
// returns false when u does not fit the trace's declared stages.
func (t *Writer) encode(u *cpu.Usage) bool {
	if len(u.BackLatch) != t.stages {
		t.err = fmt.Errorf("usagetrace: usage has %d latch stages, trace declares %d",
			len(u.BackLatch), t.stages)
		return false
	}

	b := t.scratch[:0]
	b = append(b, tagCycle)
	b = binary.AppendUvarint(b, uint64(len(t.pending)))
	for i := range t.pending {
		b = appendEvent(b, &t.pending[i], u.Cycle)
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
	b = binary.AppendVarint(b, int64(u.WindowOccupancy)-int64(t.prev.WindowOccupancy))
	for _, n := range u.BackLatch {
		b = binary.AppendUvarint(b, uint64(n))
	}
	if t.hasLatchValue {
		if len(u.BackLatchNewVal) != t.stages {
			t.err = fmt.Errorf("usagetrace: usage has %d latchvalue stages, trace declares %d",
				len(u.BackLatchNewVal), t.stages)
			return false
		}
		for _, n := range u.BackLatchNewVal {
			b = binary.AppendUvarint(b, uint64(n))
		}
	}
	t.scratch = b
	return true
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

// Cycles returns the number of cycle records written so far.
func (t *Writer) Cycles() uint64 { return t.cycles }

// Channels returns the channel table being written, usage first.
func (t *Writer) Channels() []string { return t.channels }

// Err returns the first latched write error.
func (t *Writer) Err() error { return t.err }

// Close writes the pending run and the end marker (tag + total cycle
// count) and flushes, then releases the pooled encode scratch. Events
// buffered for a cycle whose usage vector never arrived are a capture bug
// and fail the close.
func (t *Writer) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	defer t.releaseScratch()
	if t.err != nil {
		return t.err
	}
	if len(t.pending) > 0 {
		t.err = fmt.Errorf("usagetrace: %d issue events buffered past the last cycle record", len(t.pending))
		return t.err
	}
	if !t.flushRun() {
		return t.err
	}
	b := append(t.scratch[:0], tagEnd)
	b = binary.AppendUvarint(b, t.cycles)
	if !t.write(b) {
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

// releaseScratch hands the (possibly grown) encode buffers back to the
// pool for the next capture.
func (t *Writer) releaseScratch() {
	if t.sc == nil {
		return
	}
	t.sc.buf = t.scratch[:0]
	t.sc.pending = t.pending[:0]
	t.sc.latch = t.prev.BackLatch[:0]
	if t.hasLatchValue {
		t.sc.newVal = t.prev.BackLatchNewVal[:0]
	}
	scratchPool.Put(t.sc)
	t.sc, t.scratch, t.pending, t.prev = nil, nil, nil, cpu.Usage{}
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
		if stages > maxLatchStages {
			return nil, fmt.Errorf("usagetrace: implausible latch stage count %d (limit %d)",
				stages, maxLatchStages)
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
		if stages > maxLatchStages {
			return nil, fmt.Errorf("usagetrace: channel %q declares implausible stage count %d (limit %d)",
				ch, stages, maxLatchStages)
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
// the cycle and no FU; a bad FU type latches r.err.
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
		ev.FUIdx = int(r.uvarint())
		ev.FUStart = r.cycle + r.uvarint()
		ev.FULat = int(r.uvarint())
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

// fusedSchemeCount backs FusedSchemes.
var fusedSchemeCount atomic.Uint64

// FusedSchemes returns how many scheme sinks replay passes have fed
// process-wide (ReplayAll adds one per sink per pass), for the service's
// /metrics endpoint and the routing regression tests.
func FusedSchemes() uint64 { return fusedSchemeCount.Load() }

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
	fusedSchemeCount.Add(uint64(len(sinks)))
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
