package usagetrace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"dcg/internal/cpu"
)

// Trace is a complete, validated capture held in memory: the encoded
// stream plus its header metadata. It is immutable after construction —
// any number of replays (Reader/ReplayAll, Decode) may run over it
// concurrently, which is what lets one timing pass serve many scheme
// evaluations.
type Trace struct {
	name     string
	stages   int
	cycles   uint64
	channels []string
	data     []byte

	// The memoized packed view (Decode). The sync.Once makes a Trace
	// non-copyable, which is deliberate: every consumer must share the
	// one decode.
	decodeOnce sync.Once
	packed     *Packed
	decodeErr  error
}

// Name returns the traced workload's name.
func (t *Trace) Name() string { return t.name }

// BackLatchStages returns the machine's gatable back-end latch stage count.
func (t *Trace) BackLatchStages() int { return t.stages }

// Cycles returns the number of captured cycles.
func (t *Trace) Cycles() uint64 { return t.cycles }

// Channels returns the trace's channel table, usage first. Callers must
// not mutate the returned slice.
func (t *Trace) Channels() []string { return t.channels }

// HasChannel reports whether the trace carries the named channel.
func (t *Trace) HasChannel(name string) bool {
	for _, ch := range t.channels {
		if ch == name {
			return true
		}
	}
	return false
}

// SizeBytes returns the encoded size (the residency cost of caching the
// trace).
func (t *Trace) SizeBytes() int { return len(t.data) }

// Reader opens a fresh decoder over the trace. Safe to call concurrently;
// each reader has independent state.
func (t *Trace) Reader() (*Reader, error) {
	return NewReader(bytes.NewReader(t.data))
}

// Package-wide decode accounting, exported for the service's /metrics
// endpoint and the pass-count regression tests. Monotonic
// process-lifetime counters.
var (
	decodeCount      atomic.Uint64
	decodeReuseCount atomic.Uint64
)

// Decodes returns how many packed-view builds (full passes over an
// encoded trace) have run process-wide; each Trace pays at most one.
func Decodes() uint64 { return decodeCount.Load() }

// DecodeReuses returns how many Trace.Decode calls were served by an
// already-built packed view instead of re-reading the encoded stream.
func DecodeReuses() uint64 { return decodeReuseCount.Load() }

// Decode returns the trace's packed view, building it at most once per
// Trace: the first call pays one streaming pass over the encoded bytes,
// every later call — from any goroutine — reuses the memoized view. A
// trace loaded by ReadTrace already built it while validating, so its
// first Decode is a reuse. The header's cycle count is checked against
// the stream, so metadata that disagrees fails loudly instead of
// yielding silently short planes. The package-level Decodes /
// DecodeReuses counters account for both outcomes.
func (t *Trace) Decode() (*Packed, error) {
	fresh := false
	t.decodeOnce.Do(func() {
		fresh = true
		decodeCount.Add(1)
		p, _, err := decodePacked(t.data, t.cycles)
		if err != nil {
			t.decodeErr = err
			return
		}
		t.packed = p
	})
	if !fresh {
		decodeReuseCount.Add(1)
	}
	return t.packed, t.decodeErr
}

// WriteTo serialises the trace (header, records, end marker) to w, so a
// capture can be persisted and later reloaded with ReadTrace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(t.data)
	return int64(n), err
}

// EncodeGzip serialises the trace gzip-compressed. The decoders sniff the
// gzip magic, so ReadTrace (and NewReader) accept the output unchanged;
// traces compress about 8x (the 16 benchmarks at 150k instructions: 26.6
// MB raw, 3.27 MB gzipped), which is what the persistent artifact store
// and `dcgsim -trace-out foo.gz` style tooling want on disk.
func (t *Trace) EncodeGzip(w io.Writer) error {
	gz := gzipWriterPool.Get().(*gzip.Writer)
	gz.Reset(w)
	defer gzipWriterPool.Put(gz)
	if _, err := gz.Write(t.data); err != nil {
		gz.Close()
		return fmt.Errorf("usagetrace: gzip encode: %w", err)
	}
	return gz.Close()
}

// maxInflatedTrace caps a gzip-framed trace's inflated size, so a small
// crafted input (a gzip bomb) cannot make ReadTrace allocate without
// bound. Real captures are far below it: at 300k instructions with the
// latchvalue channel the largest is mcf on Deep, 20.6 MB (v2 artifacts:
// 86.5 MB there, 52.4 MB on Table 1). At the service's 5M-instruction
// request limit that v3 capture would be about 0.35 GB. Only a v2
// artifact of that capture past about 3.7M instructions would exceed
// the cap; the store then reports it corrupt and recomputes it.
const maxInflatedTrace = 1 << 30

// ReadTrace loads and fully validates an encoded trace: one pass over
// the stream builds its packed view (memoized, so the trace's first
// Decode is a reuse), and truncation, corruption, or a version mismatch
// fails here rather than mid-replay. Gzip-compressed streams
// (EncodeGzip) are detected by their magic bytes and inflated up front,
// at most maxInflatedTrace bytes of them, so the resident Trace always
// holds the raw encoding and replays never pay for decompression.
func ReadTrace(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("usagetrace: %w", err)
	}
	if len(data) >= 2 && data[0] == gzipMagic0 && data[1] == gzipMagic1 {
		if data, err = inflate(data, maxInflatedTrace); err != nil {
			return nil, err
		}
	}
	// There is no header cycle count here: the planes are sized for the
	// count the end marker declares, which any valid stream matches.
	decodeCount.Add(1)
	p, rd, err := decodePacked(data, endCycles(data))
	if err != nil {
		return nil, err
	}
	t := &Trace{
		name:     rd.Name(),
		stages:   rd.BackLatchStages(),
		cycles:   p.cycles,
		channels: rd.Channels(),
		data:     data,
	}
	t.decodeOnce.Do(func() { t.packed = p })
	return t, nil
}

// endCycles reads the cycle count a stream's closing end marker (the tag
// and a uvarint) declares, or 0 when its last bytes cannot be one: a
// valid stream always ends with one.
func endCycles(data []byte) uint64 {
	i := len(data) - 1
	if i < 1 || data[i]&0x80 != 0 {
		return 0
	}
	for i > 1 && data[i-1]&0x80 != 0 && len(data)-i < binary.MaxVarintLen64 {
		i--
	}
	if data[i-1] != tagEnd {
		return 0
	}
	if n, k := binary.Uvarint(data[i:]); k == len(data)-i {
		return n
	}
	return 0
}

// inflate returns the inflated bytes of a gzip stream, failing when they
// exceed limit. The buffer is sized once, from the stream's trailer (its
// last member's size, mod 2^32), but never past 64 times the compressed
// size: real traces compress 4.8-16.6x, and v2 ones up to 38.7x. A
// stream that inflates past that (several members, or a trailer that
// lies) has the rest counted without being kept, and is inflated again
// into a buffer of the counted size, so one past the limit fails having
// allocated no more than the first buffer.
func inflate(data []byte, limit int) ([]byte, error) {
	gz, err := pooledGzipReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("usagetrace: bad gzip framing: %w", err)
	}
	defer putGzipReader(gz)
	size := int(min(uint64(binary.LittleEndian.Uint32(data[len(data)-4:])), uint64(limit), 64*uint64(len(data))))
	for {
		out := make([]byte, size)
		if _, err := io.ReadFull(gz, out); err != nil {
			return nil, fmt.Errorf("usagetrace: truncated gzip stream: %w", err)
		}
		more, err := io.Copy(io.Discard, io.LimitReader(gz, int64(limit-size+1)))
		if err != nil {
			return nil, fmt.Errorf("usagetrace: corrupt gzip stream: %w", err)
		}
		if more == 0 {
			return out, nil
		}
		if size += int(more); size > limit {
			return nil, fmt.Errorf("usagetrace: gzip stream inflates past %d bytes", limit)
		}
		if err := gz.Reset(bytes.NewReader(data)); err != nil {
			return nil, fmt.Errorf("usagetrace: bad gzip framing: %w", err)
		}
	}
}

// Recorder captures a run into an in-memory Trace. It implements
// cpu.Observer and cpu.IssueListener by delegating to a Writer over an
// in-memory buffer; Trace() finalises the stream.
type Recorder struct {
	buf bytes.Buffer
	w   *Writer
}

// NewRecorder starts an in-memory capture for the named workload. extra
// names additional channels beyond the implicit usage channel (see
// NewWriter).
func NewRecorder(name string, backLatchStages int, extra ...string) (*Recorder, error) {
	rec := &Recorder{}
	w, err := NewWriter(&rec.buf, name, backLatchStages, extra...)
	if err != nil {
		return nil, err
	}
	rec.w = w
	return rec, nil
}

// OnIssue implements cpu.IssueListener.
func (r *Recorder) OnIssue(ev cpu.IssueEvent) { r.w.OnIssue(ev) }

// OnCycle implements cpu.Observer.
func (r *Recorder) OnCycle(u *cpu.Usage) { r.w.OnCycle(u) }

// OnQuiet implements cpu.QuietObserver.
func (r *Recorder) OnQuiet(u *cpu.Usage, n uint64) { r.w.OnQuiet(u, n) }

// Trace closes the stream and returns the completed capture.
func (r *Recorder) Trace() (*Trace, error) {
	if err := r.w.Close(); err != nil {
		return nil, err
	}
	return &Trace{
		name:     r.w.name,
		stages:   r.w.stages,
		cycles:   r.w.Cycles(),
		channels: r.w.Channels(),
		data:     r.buf.Bytes(),
	}, nil
}
