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
// memory-bandwidth replay (internal/core.Simulator.EvaluateTiming).
//
// Two consumers read a stored trace. The scalar engine (ReplayAll)
// streams the encoded bytes through scheme sinks; it needs no decoded
// form. The packed kernel reads a Packed view — per-signal bit-planes
// plus order-free aggregates — that one pass over the bytes builds
// (Trace.Decode, memoized; ReadTrace builds it while validating).
//
// # Format (v2, channelized)
//
// A trace is a set of named channels: per-cycle data families that
// schemes consume independently. The "usage" channel is the classic
// usage-vector + issue-event stream every scheme needs; the optional
// "latchvalue" channel carries the per-stage value-change counts
// (cpu.Usage.BackLatchNewVal) that data-dependent gating schemes (ddcg)
// compare latch inputs against outputs with. The stream is a header
// (with a per-channel table) followed by one record per cycle and a
// terminating end marker. All integers are unsigned varints
// (encoding/binary) unless noted; cycle numbers are implicit (record
// index == cycle, measured regions always start at cycle 0).
//
//	header:  "DCGU" | version byte (2) | name length byte | name |
//	         uvarint channelCount |
//	         per channel: name length byte | channel name | uvarint stages
//	cycle:   0x01 tag | uvarint eventCount | events... | usage |
//	         extra-channel payloads in header order
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
// The "usage" channel is always present and always first in the table;
// its stages parameter is the machine's gatable back-end latch stage
// count. A usage-only v2 trace has a cycle-record body byte-identical
// to v1's, so old replay arithmetic is untouched by the version bump.
//
// Version 1 streams — header "DCGU" | 1 | nameLen | name | uvarint
// backLatchStages, no channel table, usage-only records — are still
// accepted by the reader, so trace artifacts persisted before the v2
// bump keep decoding bit-identically. The writer always emits v2.
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
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
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
// and the repeated-record buffer OnQuiet writes from. Handed back to
// scratchPool by Close.
type encodeScratch struct {
	buf     []byte
	pending []cpu.IssueEvent
	repeat  []byte
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
	traceVersion  = 2
	traceVersion1 = 1

	tagCycle = 0x01
	tagEnd   = 0x00

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
)

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
// cpu.QuietObserver and cpu.IssueListener, so a capturing run installs it (via the cpu fan-out
// types) next to the power accountant and the gating scheme: issue events
// are buffered as they fire and flushed into the cycle's record when the
// usage vector arrives, preserving the core's events-then-usage delivery
// order for replay.
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
	repeat  []byte
	sc      *encodeScratch // pool token backing pending/scratch/repeat
	cycles  uint64
	lastOcc int64

	err    error
	closed bool
}

// NewWriter writes the v2 header for a trace of the named workload on a
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
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(channels)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	for _, ch := range channels {
		if err := bw.WriteByte(byte(len(ch))); err != nil {
			return nil, err
		}
		if _, err := bw.WriteString(ch); err != nil {
			return nil, err
		}
		n = binary.PutUvarint(buf[:], uint64(backLatchStages))
		if _, err := bw.Write(buf[:n]); err != nil {
			return nil, err
		}
	}
	sc := scratchPool.Get().(*encodeScratch)
	return &Writer{
		w:             bw,
		name:          name,
		stages:        backLatchStages,
		channels:      channels,
		hasLatchValue: hasLatchValue,
		scratch:       sc.buf[:0],
		pending:       sc.pending[:0],
		repeat:        sc.repeat[:0],
		sc:            sc,
	}, nil
}

// OnIssue implements cpu.IssueListener: the event is buffered until the
// cycle's usage vector closes the record.
func (t *Writer) OnIssue(ev cpu.IssueEvent) {
	if t.err != nil || t.closed {
		return
	}
	t.pending = append(t.pending, ev)
}

// OnCycle implements cpu.Observer: it writes the cycle record (buffered
// events first, then the usage vector) and releases the event buffer.
func (t *Writer) OnCycle(u *cpu.Usage) {
	if t.err != nil || t.closed {
		return
	}
	if u.Cycle != t.cycles {
		t.err = fmt.Errorf("usagetrace: non-contiguous cycle %d (expected %d)", u.Cycle, t.cycles)
		return
	}
	if !t.encode(u) {
		return
	}
	if _, err := t.w.Write(t.scratch); err != nil {
		t.err = err
		return
	}
	t.lastOcc = int64(u.WindowOccupancy)
	t.pending = t.pending[:0]
	t.cycles++
}

// quietChunk is roughly how many bytes of repeated records OnQuiet hands
// the buffered writer per Write.
const quietChunk = 4096

// OnQuiet implements cpu.QuietObserver. The run's first record carries any
// buffered events and the step to the run's window occupancy; every later
// record is the same bytes (no events, a zero occupancy delta), so it is
// encoded once and written n-1 more times in chunks of whole records. The
// stream is byte-identical to n OnCycle calls.
func (t *Writer) OnQuiet(u *cpu.Usage, n uint64) {
	if n == 0 {
		return
	}
	t.OnCycle(u)
	if n == 1 || t.err != nil || t.closed || !t.encode(u) {
		return
	}
	rec := t.scratch
	per := uint64(max(1, quietChunk/len(rec)))
	if cap(t.repeat) < quietChunk {
		t.repeat = make([]byte, 0, quietChunk)
	}
	chunk := t.repeat[:0]
	for i := uint64(0); i < min(per, n-1); i++ {
		chunk = append(chunk, rec...)
	}
	t.repeat = chunk
	for left := n - 1; left > 0; {
		k := min(left, per)
		if _, err := t.w.Write(chunk[:k*uint64(len(rec))]); err != nil {
			t.err = err
			return
		}
		left -= k
		t.cycles += k
	}
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
	b = binary.AppendVarint(b, int64(u.WindowOccupancy)-t.lastOcc)
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

// Close writes the end marker (tag + total cycle count) and flushes,
// then releases the pooled encode scratch. Events buffered for a cycle
// whose usage vector never arrived are a capture bug and fail the close.
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
	b := t.scratch[:0]
	b = append(b, tagEnd)
	b = binary.AppendUvarint(b, t.cycles)
	if _, err := t.w.Write(b); err != nil {
		t.err = err
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
	t.sc.repeat = t.repeat[:0]
	scratchPool.Put(t.sc)
	t.sc, t.scratch, t.pending, t.repeat = nil, nil, nil, nil
}

// Reader decodes a capture stream cycle by cycle. The usage vector and
// event slice returned by Next are reused between calls — the same
// contract the live core imposes on its observers.
type Reader struct {
	r        *bufio.Reader
	name     string
	stages   int
	channels []string

	hasLatchValue bool

	u      cpu.Usage
	events []cpu.IssueEvent

	cycle   uint64
	lastOcc int64
	done    bool
}

// NewReader parses the header and positions the reader at cycle 0. The
// stream may be gzip-compressed (as written by EncodeGzip): the two gzip
// magic bytes are sniffed and decompression is inserted transparently.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == gzipMagic0 && magic[1] == gzipMagic1 {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("usagetrace: bad gzip framing: %w", err)
		}
		br = bufio.NewReader(gz)
	}
	head := make([]byte, len(traceMagic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("usagetrace: short header: %w", err)
	}
	if string(head[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("usagetrace: bad magic %q (not a usage trace)", head[:len(traceMagic)])
	}
	v := head[len(traceMagic)]
	if v != traceVersion && v != traceVersion1 {
		return nil, fmt.Errorf("usagetrace: unsupported version %d (reader speaks %d and %d)",
			v, traceVersion1, traceVersion)
	}
	name := make([]byte, int(head[len(traceMagic)+1]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("usagetrace: short name: %w", err)
	}
	rd := &Reader{r: br, name: string(name)}

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
		rd.u.BackLatch = make([]int, stages)
		return rd, nil
	}

	// v2: a channel table, usage mandatory and first.
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
	rd.u.BackLatch = make([]int, rd.stages)
	if rd.hasLatchValue {
		rd.u.BackLatchNewVal = make([]int, rd.stages)
	}
	return rd, nil
}

// Name returns the traced workload's name.
func (r *Reader) Name() string { return r.name }

// BackLatchStages returns the machine's gatable back-end latch stage
// count (the fixed BackLatch slice length).
func (r *Reader) BackLatchStages() int { return r.stages }

// Channels returns the trace's channel table, usage first. v1 streams
// report the implicit usage-only table.
func (r *Reader) Channels() []string { return r.channels }

// Next decodes the next cycle: its issue events (in capture order) and
// its usage vector. Both point into buffers reused by the following Next.
// A clean end of trace returns io.EOF; truncation or corruption returns a
// descriptive error instead.
func (r *Reader) Next() ([]cpu.IssueEvent, *cpu.Usage, error) {
	if r.done {
		return nil, nil, io.EOF
	}
	tag, err := r.r.ReadByte()
	if err != nil {
		return nil, nil, fmt.Errorf("usagetrace: truncated at cycle %d (missing end marker): %w", r.cycle, err)
	}
	switch tag {
	case tagEnd:
		declared, err := binary.ReadUvarint(r.r)
		if err != nil {
			return nil, nil, fmt.Errorf("usagetrace: truncated end marker: %w", err)
		}
		if declared != r.cycle {
			return nil, nil, fmt.Errorf("usagetrace: end marker declares %d cycles but %d were read", declared, r.cycle)
		}
		if _, err := r.r.ReadByte(); err != io.EOF {
			return nil, nil, fmt.Errorf("usagetrace: trailing data after end marker")
		}
		r.done = true
		return nil, nil, io.EOF
	case tagCycle:
	default:
		return nil, nil, fmt.Errorf("usagetrace: corrupt record tag 0x%02x at cycle %d", tag, r.cycle)
	}

	nev, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, nil, fmt.Errorf("usagetrace: truncated at cycle %d: %w", r.cycle, err)
	}
	if nev > 1<<16 {
		return nil, nil, fmt.Errorf("usagetrace: corrupt event count %d at cycle %d", nev, r.cycle)
	}
	r.events = r.events[:0]
	for i := uint64(0); i < nev; i++ {
		ev, err := r.readEvent()
		if err != nil {
			return nil, nil, fmt.Errorf("usagetrace: truncated event at cycle %d: %w", r.cycle, err)
		}
		r.events = append(r.events, ev)
	}

	u := &r.u
	u.Cycle = r.cycle
	fields := [...]*int{
		&u.IssueCount, &u.FPIssueCount, &u.MemIssueCount,
		nil, nil, nil, nil, // FU masks, read separately below
		&u.DPortUsed, &u.ResultBus, &u.CommitCount, &u.FetchCount,
	}
	masks := [...]*uint32{&u.IntALUBusy, &u.IntMultBusy, &u.FPALUBusy, &u.FPMultBusy}
	mi := 0
	for _, f := range fields {
		v, err := binary.ReadUvarint(r.r)
		if err != nil {
			return nil, nil, fmt.Errorf("usagetrace: truncated usage at cycle %d: %w", r.cycle, err)
		}
		if f != nil {
			*f = int(v)
		} else {
			*masks[mi] = uint32(v)
			mi++
		}
	}
	occDelta, err := binary.ReadVarint(r.r)
	if err != nil {
		return nil, nil, fmt.Errorf("usagetrace: truncated usage at cycle %d: %w", r.cycle, err)
	}
	r.lastOcc += occDelta
	u.WindowOccupancy = int(r.lastOcc)
	for s := range u.BackLatch {
		v, err := binary.ReadUvarint(r.r)
		if err != nil {
			return nil, nil, fmt.Errorf("usagetrace: truncated usage at cycle %d: %w", r.cycle, err)
		}
		u.BackLatch[s] = int(v)
	}
	if r.hasLatchValue {
		for s := range u.BackLatchNewVal {
			v, err := binary.ReadUvarint(r.r)
			if err != nil {
				return nil, nil, fmt.Errorf("usagetrace: truncated latchvalue at cycle %d: %w", r.cycle, err)
			}
			u.BackLatchNewVal[s] = int(v)
		}
	}

	r.cycle++
	return r.events, u, nil
}

// readEvent decodes one issue event for the current cycle.
func (r *Reader) readEvent() (cpu.IssueEvent, error) {
	ev := cpu.IssueEvent{Cycle: r.cycle, FUIdx: -1}
	flags, err := r.r.ReadByte()
	if err != nil {
		return ev, err
	}
	if flags&flagHasFU != 0 {
		ev.FUType = cpu.FUType(flags >> fuTypeShift)
		if ev.FUType >= cpu.NumFUTypes {
			return ev, fmt.Errorf("corrupt FU type %d", ev.FUType)
		}
		idx, err := binary.ReadUvarint(r.r)
		if err != nil {
			return ev, err
		}
		ev.FUIdx = int(idx)
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			return ev, err
		}
		ev.FUStart = r.cycle + d
		lat, err := binary.ReadUvarint(r.r)
		if err != nil {
			return ev, err
		}
		ev.FULat = int(lat)
	}
	ev.IsLoad = flags&flagIsLoad != 0
	ev.IsStore = flags&flagIsStore != 0
	if ev.IsLoad || ev.IsStore {
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			return ev, err
		}
		ev.DPortCycle = r.cycle + d
	}
	if flags&flagWritesReg != 0 {
		ev.WritesReg = true
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			return ev, err
		}
		ev.ResultBusCycle = r.cycle + d
	}
	return ev, nil
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
// its usage vector. Each sink observes exactly the sequence the live
// core delivered, so per-sink results are bit-identical to one-at-a-time
// replays; the fusion only shares the parse across sinks. The usage
// vector passed to OnCycle is reused between cycles (the live core's
// contract); sinks must not retain it. It returns the replayed cycle
// count.
func ReplayAll(r *Reader, sinks ...Sink) (uint64, error) {
	fusedSchemeCount.Add(uint64(len(sinks)))
	var cycles uint64
	for {
		events, u, err := r.Next()
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
			if s.Cycle != nil {
				s.Cycle.OnCycle(u)
			}
		}
		cycles++
	}
}
