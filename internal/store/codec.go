package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dcg/internal/core"
	"dcg/internal/usagetrace"
)

// Payload codecs shared by the disk store and the remote backend. The
// disk store frames these payloads into on-disk artifacts; the remote
// backend ships the identical frames over HTTP, so one artifact is
// byte-compatible everywhere and the CRC protects it end-to-end.

// encodeFrame wraps a payload in the artifact envelope: magic, version,
// kind, payload length, payload, CRC-32C.
func encodeFrame(kind byte, payload []byte) []byte {
	frame := make([]byte, 0, frameOverhead+len(payload))
	frame = append(frame, artifactMagic...)
	frame = append(frame, artifactVersion, kind)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
}

// encodeResultPayload renders a result artifact payload: gzip-compressed
// canonical JSON.
func encodeResultPayload(r *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if err := json.NewEncoder(gz).Encode(r); err != nil {
		gz.Close()
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// maxResultJSON caps a result payload's inflated JSON, so a small crafted
// upload (a gzip bomb) cannot make a decode allocate without bound. A
// Result encodes to about 2.4 KB: the largest, a plb-ext run, is 2,412
// bytes.
const maxResultJSON = 1 << 20

// decodeResultPayload is the inverse of encodeResultPayload.
func decodeResultPayload(payload []byte) (*core.Result, error) {
	gz, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("result payload not gzip: %w", err)
	}
	raw, err := io.ReadAll(io.LimitReader(gz, maxResultJSON+1))
	if err == nil && len(raw) > maxResultJSON {
		err = fmt.Errorf("inflates past %d bytes", maxResultJSON)
	}
	if err == nil {
		err = gz.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("result gzip stream: %w", err)
	}
	res := new(core.Result)
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, fmt.Errorf("result JSON: %w", err)
	}
	return res, nil
}

// timingMeta is the JSON header of a timing artifact: every core.Timing
// field except the trace, which follows it gzip-framed.
type timingMeta struct {
	Benchmark      string
	Machine        json.RawMessage // config.Config, kept raw to round-trip exactly
	CPUStats       json.RawMessage
	Util           core.Utilization
	Stall          core.StallStack
	BranchAccuracy float64
	DL1MissRate    float64
	L2MissRate     float64
}

// encodeTimingPayload renders a timing artifact payload: a uvarint-length
// JSON meta header followed by the gzip-framed usage trace.
func encodeTimingPayload(t *core.Timing) ([]byte, error) {
	machine, err := json.Marshal(t.Machine)
	if err != nil {
		return nil, err
	}
	stats, err := json.Marshal(t.CPUStats)
	if err != nil {
		return nil, err
	}
	meta, err := json.Marshal(timingMeta{
		Benchmark: t.Benchmark, Machine: machine, CPUStats: stats,
		Util: t.Util, Stall: t.Stall,
		BranchAccuracy: t.BranchAccuracy,
		DL1MissRate:    t.DL1MissRate,
		L2MissRate:     t.L2MissRate,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var lenBuf [binary.MaxVarintLen64]byte
	buf.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(meta)))])
	buf.Write(meta)
	if err := t.Trace.EncodeGzip(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeTimingPayload is the inverse of encodeTimingPayload.
func decodeTimingPayload(payload []byte) (*core.Timing, error) {
	metaLen, n := binary.Uvarint(payload)
	if n <= 0 || metaLen > uint64(len(payload)-n) {
		return nil, errors.New("timing meta length out of range")
	}
	var meta timingMeta
	if err := json.Unmarshal(payload[n:n+int(metaLen)], &meta); err != nil {
		return nil, fmt.Errorf("timing meta JSON: %w", err)
	}
	tm := &core.Timing{
		Benchmark:      meta.Benchmark,
		Util:           meta.Util,
		Stall:          meta.Stall,
		BranchAccuracy: meta.BranchAccuracy,
		DL1MissRate:    meta.DL1MissRate,
		L2MissRate:     meta.L2MissRate,
	}
	if err := json.Unmarshal(meta.Machine, &tm.Machine); err != nil {
		return nil, fmt.Errorf("timing machine JSON: %w", err)
	}
	if err := json.Unmarshal(meta.CPUStats, &tm.CPUStats); err != nil {
		return nil, fmt.Errorf("timing cpu stats JSON: %w", err)
	}
	tr, err := usagetrace.ReadTrace(bytes.NewReader(payload[n+int(metaLen):]))
	if err != nil {
		return nil, fmt.Errorf("timing trace: %w", err)
	}
	// A trace that disagrees with its own meta could never be replayed,
	// and a valid CRC would otherwise keep serving it: corruption.
	if tr.Cycles() != tm.CPUStats.Cycles {
		return nil, fmt.Errorf("timing trace has %d cycles but its meta ran %d",
			tr.Cycles(), tm.CPUStats.Cycles)
	}
	if want := tm.Machine.BackEndLatchStages(); tr.BackLatchStages() != want {
		return nil, fmt.Errorf("timing trace has %d latch stages but its machine has %d",
			tr.BackLatchStages(), want)
	}
	tm.Trace = tr
	return tm, nil
}
