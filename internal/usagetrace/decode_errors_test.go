package usagetrace

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"dcg/internal/cpu"
)

// tinyCapture records a minimal well-formed trace (cycles cycles, two
// latch stages, no issue events) and returns the encoded bytes.
func tinyCapture(t testing.TB, cycles int) []byte {
	t.Helper()
	rec, err := NewRecorder("tiny", 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cycles; c++ {
		u := cpu.Usage{Cycle: uint64(c), IssueCount: 1, BackLatch: []int{1, 2}}
		rec.OnCycle(&u)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Offsets inside the encoding of tinyCapture: the v2 header is
// "DCGU" + version + nameLen + "tiny" (= 10 bytes), then the channel
// table: uvarint(1) channel count, len byte + "usage" + uvarint(2)
// stages — 18 bytes total, followed by the first cycle record.
const (
	chTableOff = 10 // uvarint channel count
	headerLen  = 18 // first cycle record tag
)

// corruptStream is one corruption class: a mutation of tinyCapture's
// encoding and the diagnostic the decoder must produce for it.
type corruptStream struct {
	name    string
	mutate  func([]byte) []byte
	wantErr string
}

// corruptStreams lists every corruption class the decoder promises to
// fail loudly on. TestDecodeErrorPaths pins each diagnostic and
// FuzzReadTrace starts from the same inputs.
func corruptStreams() []corruptStream {
	// chEntry encodes one channel-table entry; withChannels splices extra
	// entries after the mandatory usage entry (patching the count byte),
	// leaving the usage-only cycle records behind them untouched — every
	// such mutation must be refused while parsing the table itself.
	chEntry := func(name string, stages uint64) []byte {
		e := append([]byte{byte(len(name))}, name...)
		return binary.AppendUvarint(e, stages)
	}
	withChannels := func(b []byte, entries ...[]byte) []byte {
		out := append([]byte{}, b[:headerLen]...)
		out[chTableOff] = byte(1 + len(entries))
		for _, e := range entries {
			out = append(out, e...)
		}
		return append(out, b[headerLen:]...)
	}

	return []corruptStream{
		{
			name:    "empty stream",
			mutate:  func([]byte) []byte { return nil },
			wantErr: "short header",
		},
		{
			name:    "header cut mid-magic",
			mutate:  func(b []byte) []byte { return b[:3] },
			wantErr: "short header",
		},
		{
			name:    "bad magic",
			mutate:  func(b []byte) []byte { return append([]byte("NOPE"), b[4:]...) },
			wantErr: "bad magic",
		},
		{
			name: "unsupported version",
			mutate: func(b []byte) []byte {
				b[len(traceMagic)] = traceVersion + 1
				return b
			},
			wantErr: "unsupported version",
		},
		{
			name:    "name cut short",
			mutate:  func(b []byte) []byte { return b[:len(traceMagic)+2+2] },
			wantErr: "short name",
		},
		{
			name:    "channel count missing",
			mutate:  func(b []byte) []byte { return b[:chTableOff] },
			wantErr: "short header (channel count)",
		},
		{
			name: "zero channels",
			mutate: func(b []byte) []byte {
				b[chTableOff] = 0
				return b
			},
			wantErr: "no channels (usage is mandatory)",
		},
		{
			name: "implausible channel count",
			mutate: func(b []byte) []byte {
				b[chTableOff] = maxTraceChannels + 1
				return b
			},
			wantErr: "implausible channel count",
		},
		{
			name:    "channel name cut short",
			mutate:  func(b []byte) []byte { return b[:chTableOff+3] },
			wantErr: "short channel header 0",
		},
		{
			name: "first channel not usage",
			mutate: func(b []byte) []byte {
				b[headerLen-2] = 'f' // "usage" -> "usagf"
				return b
			},
			wantErr: `first channel is "usagf"`,
		},
		{
			name:    "latch-stage count missing",
			mutate:  func(b []byte) []byte { return b[:headerLen-1] },
			wantErr: `short channel header "usage"`,
		},
		{
			name: "second channel header missing",
			mutate: func(b []byte) []byte {
				out := append([]byte{}, b[:headerLen]...)
				out[chTableOff] = 2
				return out
			},
			wantErr: "short channel header 1",
		},
		{
			name: "duplicate usage channel",
			mutate: func(b []byte) []byte {
				return withChannels(b, chEntry(ChannelUsage, 2))
			},
			wantErr: `duplicate "usage" channel`,
		},
		{
			name: "unknown extra channel",
			mutate: func(b []byte) []byte {
				return withChannels(b, chEntry("bogus", 2))
			},
			wantErr: `unknown trace channel "bogus"`,
		},
		{
			name: "extra channel stage mismatch",
			mutate: func(b []byte) []byte {
				return withChannels(b, chEntry(ChannelLatchValue, 3))
			},
			wantErr: `channel "latchvalue" declares 3 stages but usage declares 2`,
		},
		{
			name: "duplicate extra channel",
			mutate: func(b []byte) []byte {
				return withChannels(b, chEntry(ChannelLatchValue, 2), chEntry(ChannelLatchValue, 2))
			},
			wantErr: `duplicate "latchvalue" channel`,
		},
		{
			name: "extra channel stage count implausible",
			mutate: func(b []byte) []byte {
				return withChannels(b, chEntry(ChannelLatchValue, maxLatchStages+1))
			},
			wantErr: "implausible stage count",
		},
		{
			name:    "stream ends after header",
			mutate:  func(b []byte) []byte { return b[:headerLen] },
			wantErr: "truncated at cycle 0 (missing end marker)",
		},
		{
			name:    "record cut mid-usage",
			mutate:  func(b []byte) []byte { return b[:headerLen+3] },
			wantErr: "truncated usage at cycle 0",
		},
		{
			name: "corrupt record tag",
			mutate: func(b []byte) []byte {
				b[headerLen] = 0x7e
				return b
			},
			wantErr: "corrupt record tag 0x7e at cycle 0",
		},
		{
			name: "corrupt event count",
			mutate: func(b []byte) []byte {
				// Replace the first record's event-count varint (0) with a
				// huge value; the record body that follows no longer parses
				// as that many events, but the count check fires first.
				huge := binary.AppendUvarint(nil, 1<<20)
				out := append([]byte{}, b[:headerLen+1]...)
				out = append(out, huge...)
				return append(out, b[headerLen+2:]...)
			},
			wantErr: "corrupt event count",
		},
		{
			name:    "end marker count missing",
			mutate:  func(b []byte) []byte { return b[:len(b)-1] },
			wantErr: "truncated end marker",
		},
		{
			name: "end marker declares wrong cycle count",
			mutate: func(b []byte) []byte {
				b[len(b)-1] = 9 // tinyCapture wrote uvarint(3)
				return b
			},
			wantErr: "end marker declares 9 cycles but 3 were read",
		},
		{
			name:    "trailing bytes after end marker",
			mutate:  func(b []byte) []byte { return append(b, 0xde, 0xad) },
			wantErr: "trailing data after end marker",
		},
		{
			name: "implausible latch stage count",
			mutate: func(b []byte) []byte {
				// Splice a stage count past the hardening limit over the
				// single-byte uvarint(2) closing the usage channel entry.
				out := append([]byte{}, b[:headerLen-1]...)
				out = binary.AppendUvarint(out, maxLatchStages+1)
				return append(out, b[headerLen:]...)
			},
			wantErr: "implausible stage count",
		},
	}
}

// repeatAt is the offset of tinyCapture's repeat record: its first cycle
// record (tag, event count, eleven usage fields, occupancy delta, two
// latch stages, one byte each) is 16 bytes, and cycles 1 and 2 repeat it,
// so the stream ends 0x02 0x02 | 0x00 0x03.
const repeatAt = headerLen + 16

// repeatCorruptions lists the corruption classes of repeat records and of
// the bound on the cycles a stream may claim, as mutations of tinyCapture.
func repeatCorruptions() []corruptStream {
	withRepeat := func(b []byte, k, total uint64) []byte {
		out := append(b[:repeatAt:repeatAt], tagRepeat)
		out = binary.AppendUvarint(out, k)
		out = append(out, tagEnd)
		return binary.AppendUvarint(out, total)
	}
	return []corruptStream{
		{
			name:    "repeat count zero",
			mutate:  func(b []byte) []byte { return withRepeat(b, 0, 1) },
			wantErr: "corrupt repeat count 0 at cycle 1",
		},
		{
			name:    "repeat count overflows the cycle counter",
			mutate:  func(b []byte) []byte { return withRepeat(b, math.MaxUint64, 0) },
			wantErr: "corrupt repeat count 18446744073709551615 at cycle 1",
		},
		{
			name:    "repeat record cut short",
			mutate:  func(b []byte) []byte { return b[:repeatAt+1] },
			wantErr: "truncated repeat record at cycle 1",
		},
		{
			name: "repeat before the first cycle",
			mutate: func(b []byte) []byte {
				return append(b[:headerLen:headerLen], b[repeatAt:]...)
			},
			wantErr: "repeat record before the first cycle",
		},
		{
			name: "repeat in a v2 stream",
			mutate: func(b []byte) []byte {
				b[len(traceMagic)] = traceVersion2
				return b
			},
			wantErr: "repeat record at cycle 1 of a version 2 stream",
		},
		{
			name: "repeat in a v1 stream",
			mutate: func(b []byte) []byte {
				// The v1 header is the v2 one without its channel table:
				// "DCGU" | 1 | nameLen | name | uvarint stages.
				out := append(b[:chTableOff:chTableOff], 2)
				out[len(traceMagic)] = traceVersion1
				return append(out, b[headerLen:]...)
			},
			wantErr: "repeat record at cycle 1 of a version 1 stream",
		},
		{
			// 38 bytes may hold two 16-byte cycle records, so claim at most
			// 64 cycles.
			name:    "more cycles than the stream's length allows",
			mutate:  func(b []byte) []byte { return withRepeat(b, runBound*2, runBound*2+1) },
			wantErr: "implausible cycle count at cycle 1: a 38-byte stream may claim at most 64",
		},
		{
			name: "maximum-count repeats",
			mutate: func(b []byte) []byte {
				out := b[:repeatAt:repeatAt]
				for i := 0; i < 64; i++ {
					out = append(out, tagRepeat)
					out = binary.AppendUvarint(out, math.MaxUint64-1)
				}
				return append(out, tagEnd, 0xff)
			},
			wantErr: "implausible cycle count at cycle 1",
		},
	}
}

// TestDecodeErrorPaths drives every corruption class the decoder promises
// to fail loudly on, pinning the diagnostic each one produces.
func TestDecodeErrorPaths(t *testing.T) {
	good := tinyCapture(t, 3)
	if good[headerLen] != tagCycle || good[repeatAt] != tagRepeat {
		t.Fatalf("layout drift: bytes %d and %d are 0x%02x and 0x%02x, want the cycle and repeat tags",
			headerLen, repeatAt, good[headerLen], good[repeatAt])
	}

	for _, tc := range append(corruptStreams(), repeatCorruptions()...) {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte{}, good...))
			_, err := ReadTrace(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("corrupt stream decoded cleanly, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}

	// The pristine stream still round-trips — the mutations above really
	// were the cause of each failure.
	tr, err := ReadTrace(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("pristine stream failed to decode: %v", err)
	}
	if tr.Cycles() != 3 || tr.Name() != "tiny" || tr.BackLatchStages() != 2 {
		t.Fatalf("pristine decode metadata %q/%d/%d, want tiny/3/2",
			tr.Name(), tr.Cycles(), tr.BackLatchStages())
	}
}

// TestDecodeTruncatedEventPayload cuts a stream that contains issue
// events inside the event payload itself.
func TestDecodeTruncatedEventPayload(t *testing.T) {
	rec, err := NewRecorder("ev", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.OnIssue(cpu.IssueEvent{
		Cycle: 0, FUIdx: 2, FUType: cpu.FUIntALU, FUStart: 2, FULat: 1,
		WritesReg: true, ResultBusCycle: 3,
	})
	u := cpu.Usage{Cycle: 0, IssueCount: 1, BackLatch: []int{1}}
	rec.OnCycle(&u)
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Header ("DCGU" + version + nameLen + "ev" + channel table =
	// 4+1+1+2+1+1+5+1 = 16 bytes) + tag + event count + flags puts byte
	// 19 inside the event's timing fields.
	_, err = ReadTrace(bytes.NewReader(full[:19]))
	if err == nil || !strings.Contains(err.Error(), "truncated event at cycle 0") {
		t.Fatalf("err = %v, want truncated-event error", err)
	}

	// The flags byte (offset 18) carries the FU type in its top nibble;
	// setting the two reserved bits yields a type no machine has, which
	// must be refused rather than indexed into the schedule rings.
	corrupt := append([]byte{}, full...)
	corrupt[18] |= 0xC0
	_, err = ReadTrace(bytes.NewReader(corrupt))
	if err == nil || !strings.Contains(err.Error(), "corrupt FU type") {
		t.Fatalf("err = %v, want corrupt-FU-type error", err)
	}
}

// TestDecodeTruncatedLatchValuePayload cuts a channelized stream inside
// the latchvalue payload of a cycle record: the decoder must name the
// channel it was reading, not report a generic usage truncation.
func TestDecodeTruncatedLatchValuePayload(t *testing.T) {
	rec, err := NewRecorder("lv", 2, ChannelLatchValue)
	if err != nil {
		t.Fatal(err)
	}
	u := cpu.Usage{Cycle: 0, IssueCount: 1, BackLatch: []int{1, 2}, BackLatchNewVal: []int{1, 1}}
	rec.OnCycle(&u)
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// The stream is header + one cycle record + end marker (tag byte +
	// uvarint(1) = 2 bytes); the record's last byte is the second
	// latchvalue uvarint, so cutting one byte earlier lands mid-payload.
	_, err = ReadTrace(bytes.NewReader(full[:len(full)-3]))
	if err == nil || !strings.Contains(err.Error(), "truncated latchvalue at cycle 0") {
		t.Fatalf("err = %v, want truncated-latchvalue error", err)
	}
}

// TestDecodeColumnsErrorPaths table-drives the failures only the full
// decode (Trace.Decode) can detect: header cycle counts that disagree
// with the stream — including one absurd enough that an unbounded
// preallocation would OOM before reading a byte.
func TestDecodeColumnsErrorPaths(t *testing.T) {
	good := tinyCapture(t, 3)

	tests := []struct {
		name    string
		trace   *Trace
		wantErr string
	}{
		{
			name:    "header declares more cycles than stream",
			trace:   &Trace{name: "tiny", stages: 2, cycles: 5, data: good},
			wantErr: "decoded 3 cycles but trace header declares 5",
		},
		{
			name:    "header declares fewer cycles than stream",
			trace:   &Trace{name: "tiny", stages: 2, cycles: 2, data: good},
			wantErr: "decoded 3 cycles but trace header declares 2",
		},
		{
			name: "absurd header cycle count does not preallocate",
			// 2^40 cycles would be a ~50TB make() without the prealloc
			// cap; with it, the decode runs and fails on the mismatch.
			trace:   &Trace{name: "tiny", stages: 2, cycles: 1 << 40, data: good},
			wantErr: "decoded 3 cycles but trace header declares 1099511627776",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.trace.Decode()
			if err == nil {
				t.Fatalf("decode succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}
