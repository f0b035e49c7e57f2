// Package store is the persistent artifact tier underneath the in-memory
// simulation caches: a content-addressed, integrity-checked on-disk cache
// of finished simulation results and captured timing traces.
//
// Artifacts are addressed by the SHA-256 of the canonical simulation key
// and live in a sharded two-level directory layout
// (objects/ab/cd/abcd….res), so a directory never accumulates an
// unbounded number of entries. Every artifact is framed with a magic,
// version, payload length, and CRC-32C; a mismatch on read is a loud
// corruption error — the artifact is evicted and the caller recomputes,
// it is never silently decoded. Results are stored as plain JSON; timing
// traces reuse the usagetrace gzip framing.
//
// Writes are atomic (temp file + rename into place), so a crashed or
// killed process can never leave a partially visible artifact. The store
// is safe to share between processes: eviction passes are serialised by a
// lock file, and duplicate in-process writes of one key are collapsed by
// a singleflight set. Residency is bounded by a byte cap with
// least-recently-used eviction; reads refresh the artifact's
// access/modification time (an explicit Chtimes, because relatime mounts
// make raw atime unreliable), and the eviction pass drops the
// stalest-first until the cap holds.
//
// The store implements simrun.PersistentTier, which is how it slots in
// underneath simrun.Exec and makes a restarted dcgserve warm.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/simrun"
)

const (
	artifactMagic   = "DCGA"
	artifactVersion = 1

	kindResult byte = 0x01
	kindTiming byte = 0x02

	extResult = ".res"
	extTiming = ".tim"

	// staleLockAge is how old the eviction lock file may be before another
	// process assumes its owner died mid-pass and takes the lock over.
	staleLockAge = time.Minute
)

// castagnoli is the CRC-32C table used for artifact checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is the on-disk artifact cache. All methods are safe for
// concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	log      *slog.Logger

	size atomic.Int64 // approximate resident payload bytes

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	writeErrors atomic.Uint64
	corruptions atomic.Uint64
	evictions   atomic.Uint64

	mu      sync.Mutex
	writing map[string]struct{} // singleflight set of in-progress puts
	evictMu sync.Mutex          // one in-process eviction pass at a time
}

// Open creates (or reopens) a store rooted at dir. maxBytes bounds the
// resident artifact bytes (<= 0 means unbounded); log receives loud
// corruption reports and quiet write-failure notes (nil = disabled).
func Open(dir string, maxBytes int64, log *slog.Logger) (*Store, error) {
	if log == nil {
		log = obs.NopLogger()
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, log: log, writing: make(map[string]struct{})}
	size, _, err := s.scan()
	if err != nil {
		return nil, err
	}
	s.size.Store(size)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats is a snapshot of the store's activity counters.
type Stats struct {
	Hits        uint64 // artifacts served
	Misses      uint64 // lookups that found no (valid) artifact
	Writes      uint64 // artifacts persisted
	WriteErrors uint64 // failed persists (absorbed, not surfaced)
	Corruptions uint64 // artifacts that failed integrity and were evicted
	Evictions   uint64 // artifacts dropped by the size cap
	SizeBytes   int64  // approximate resident bytes
	MaxBytes    int64  // configured cap (0 = unbounded)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Corruptions: s.corruptions.Load(),
		Evictions:   s.evictions.Load(),
		SizeBytes:   s.size.Load(),
		MaxBytes:    s.maxBytes,
	}
}

// Register exposes the store's counters on an obs.Registry (the dcgserve
// /metrics endpoint).
func (s *Store) Register(reg *obs.Registry) {
	reg.CounterFunc("dcg_store_hits_total",
		"Artifacts served from the persistent store.",
		func() float64 { return float64(s.hits.Load()) })
	reg.CounterFunc("dcg_store_misses_total",
		"Persistent store lookups that found no valid artifact.",
		func() float64 { return float64(s.misses.Load()) })
	reg.CounterFunc("dcg_store_writes_total",
		"Artifacts written to the persistent store.",
		func() float64 { return float64(s.writes.Load()) })
	reg.CounterFunc("dcg_store_write_errors_total",
		"Failed artifact writes (absorbed; the result stayed in memory).",
		func() float64 { return float64(s.writeErrors.Load()) })
	reg.CounterFunc("dcg_store_corruptions_total",
		"Artifacts that failed their integrity check and were evicted.",
		func() float64 { return float64(s.corruptions.Load()) })
	reg.CounterFunc("dcg_store_evictions_total",
		"Artifacts evicted by the size cap (LRU by access time).",
		func() float64 { return float64(s.evictions.Load()) })
	reg.GaugeFunc("dcg_store_size_bytes",
		"Approximate bytes resident in the persistent store.",
		func() float64 { return float64(s.size.Load()) })
}

// resultAddr derives the content address of a result artifact. The
// canonical string covers every Key field plus a format version and the
// payload's format tag, so a layout change can never decode stale
// artifacts: results stored gzip-compressed, before the tag, are never
// addressed. Schemes address by name: the registry's string names are
// stable where enum ordinals were not.
func resultAddr(k simrun.Key) string {
	return addr(fmt.Sprintf("result|v%d|json|bench=%s|scheme=%s|deep=%t|alu=%d|insts=%d|warmup=%d",
		artifactVersion, k.Bench, k.Scheme, k.Deep, k.IntALU, k.Insts, k.Warmup))
}

// timingAddr derives the content address of a timing artifact. The
// channel set and the capture throttle are appended only when non-empty,
// so every usage-only timing artifact written before trace channels
// existed keeps its address — old stores stay warm — while channelized
// captures address separately and a v1 artifact can never serve a
// value-dependent scheme. A throttled key never addresses an unthrottled
// artifact; the executor stores no throttled timing, since its trace has
// no bytes.
func timingAddr(k simrun.TimingKey) string {
	canonical := fmt.Sprintf("timing|v%d|bench=%s|deep=%t|alu=%d|insts=%d|warmup=%d",
		artifactVersion, k.Bench, k.Deep, k.IntALU, k.Insts, k.Warmup)
	if k.Channels != "" {
		canonical += "|channels=" + k.Channels
	}
	if k.Throttle != "" {
		canonical += "|throttle=" + string(k.Throttle)
	}
	return addr(canonical)
}

func addr(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// path maps an address to its sharded location:
// objects/<h[0:2]>/<h[2:4]>/<h><ext>.
func (s *Store) path(addr, ext string) string {
	return filepath.Join(s.dir, "objects", addr[:2], addr[2:4], addr+ext)
}

// GetResult implements simrun.PersistentTier.
func (s *Store) GetResult(ctx context.Context, k simrun.Key) (_ *core.Result, ok bool) {
	_, sp := obs.StartSpan(ctx, "store.get_result")
	sp.SetAttr("bench", k.Bench)
	sp.SetAttr("scheme", k.Scheme.String())
	defer func() { sp.SetAttrBool("hit", ok); sp.Finish() }()
	path := s.path(resultAddr(k), extResult)
	payload, ok := s.read(path, kindResult)
	if !ok {
		return nil, false
	}
	sp.SetAttrInt("bytes", int64(len(payload)))
	res, err := decodeResultPayload(payload)
	if err != nil {
		s.corrupt(path, err)
		return nil, false
	}
	s.touch(path)
	s.hits.Add(1)
	return res, true
}

// PutResult implements simrun.PersistentTier.
func (s *Store) PutResult(ctx context.Context, k simrun.Key, r *core.Result) {
	_, sp := obs.StartSpan(ctx, "store.put_result")
	sp.SetAttr("bench", k.Bench)
	sp.SetAttr("scheme", k.Scheme.String())
	defer sp.Finish()
	path := s.path(resultAddr(k), extResult)
	s.put(path, kindResult, func() ([]byte, error) { return encodeResultPayload(r) })
}

// GetTiming implements simrun.PersistentTier.
func (s *Store) GetTiming(ctx context.Context, k simrun.TimingKey) (_ *core.Timing, ok bool) {
	_, sp := obs.StartSpan(ctx, "store.get_timing")
	sp.SetAttr("bench", k.Bench)
	sp.SetAttr("channels", k.Channels)
	defer func() { sp.SetAttrBool("hit", ok); sp.Finish() }()
	path := s.path(timingAddr(k), extTiming)
	payload, ok := s.read(path, kindTiming)
	if !ok {
		return nil, false
	}
	sp.SetAttrInt("bytes", int64(len(payload)))
	tm, err := decodeTimingPayload(payload)
	if err != nil {
		s.corrupt(path, err)
		return nil, false
	}
	s.touch(path)
	s.hits.Add(1)
	return tm, true
}

// PutTiming implements simrun.PersistentTier.
func (s *Store) PutTiming(ctx context.Context, k simrun.TimingKey, t *core.Timing) {
	_, sp := obs.StartSpan(ctx, "store.put_timing")
	sp.SetAttr("bench", k.Bench)
	sp.SetAttr("channels", k.Channels)
	defer sp.Finish()
	path := s.path(timingAddr(k), extTiming)
	s.put(path, kindTiming, func() ([]byte, error) { return encodeTimingPayload(t) })
}

// read loads and integrity-checks one artifact, returning its payload.
// A missing file is a silent miss; a malformed or mismatched file is a
// loud corruption (logged, counted, evicted) that also reads as a miss.
func (s *Store) read(path string, kind byte) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.log.Warn("store: artifact unreadable", "path", path, "err", err)
		}
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeFrame(data, kind)
	if err != nil {
		s.corrupt(path, err)
		return nil, false
	}
	return payload, true
}

// frameOverhead is the fixed artifact envelope size: magic, version,
// kind, 8-byte payload length, trailing CRC-32C.
const frameOverhead = len(artifactMagic) + 1 + 1 + 8 + 4

// decodeFrame validates the artifact envelope and returns the payload.
func decodeFrame(data []byte, kind byte) ([]byte, error) {
	if len(data) < frameOverhead {
		return nil, fmt.Errorf("short artifact: %d bytes", len(data))
	}
	if string(data[:4]) != artifactMagic {
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	if data[4] != artifactVersion {
		return nil, fmt.Errorf("unsupported version %d", data[4])
	}
	if data[5] != kind {
		return nil, fmt.Errorf("artifact kind 0x%02x, want 0x%02x", data[5], kind)
	}
	declared := binary.LittleEndian.Uint64(data[6:14])
	payload := data[14 : len(data)-4]
	if declared != uint64(len(payload)) {
		return nil, fmt.Errorf("payload length %d, frame declares %d", len(payload), declared)
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("CRC mismatch: computed %08x, stored %08x", got, want)
	}
	return payload, nil
}

// claim enters the singleflight set for one artifact path; it returns
// false when another goroutine is already writing it. A successful claim
// must be paired with release.
func (s *Store) claim(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, inFlight := s.writing[path]; inFlight {
		return false
	}
	s.writing[path] = struct{}{}
	return true
}

func (s *Store) release(path string) {
	s.mu.Lock()
	delete(s.writing, path)
	s.mu.Unlock()
}

// put encodes and atomically persists one artifact: payload from encode,
// enveloped, flushed to a temp file, fsynced, renamed into place.
// Failures are absorbed (counted and logged) — the store is a cache.
// Concurrent puts of the same artifact collapse to one write.
func (s *Store) put(path string, kind byte, encode func() ([]byte, error)) {
	if !s.claim(path) {
		return
	}
	defer s.release(path)
	if _, err := os.Stat(path); err == nil {
		return // already persisted (this process or another)
	}
	payload, err := encode()
	if err != nil {
		s.writeError(path, err)
		return
	}
	if err := s.install(path, encodeFrame(kind, payload)); err != nil {
		s.writeError(path, err)
	}
}

// putFrame persists an already-framed artifact (a remote upload or a
// read-through fill). The frame must have been validated by the caller;
// the bytes land on disk verbatim, so the CRC the origin computed is the
// CRC every later read checks. Unlike put, write failures surface — the
// HTTP handler turns them into a 5xx.
func (s *Store) putFrame(path string, frame []byte) error {
	if !s.claim(path) {
		return nil // a concurrent writer is persisting the same artifact
	}
	defer s.release(path)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := s.install(path, frame); err != nil {
		s.writeError(path, err)
		return err
	}
	return nil
}

// install writes a framed artifact atomically (temp + fsync + rename)
// and accounts for it.
func (s *Store) install(path string, frame []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(frame)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.writes.Add(1)
	s.size.Add(int64(len(frame)))
	s.maybeEvict()
	return nil
}

// readFrame loads one artifact's raw framed bytes, validating the
// envelope. Missing reads as a miss; corruption is loud (logged, counted,
// evicted) and also reads as a miss. The frame is what the remote
// handler serves, so the on-disk CRC travels with the bytes.
func (s *Store) readFrame(path string, kind byte) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.log.Warn("store: artifact unreadable", "path", path, "err", err)
		}
		s.misses.Add(1)
		return nil, false
	}
	if _, err := decodeFrame(data, kind); err != nil {
		s.corrupt(path, err)
		return nil, false
	}
	return data, true
}

func (s *Store) writeError(path string, err error) {
	s.writeErrors.Add(1)
	s.log.Warn("store: artifact write failed", "path", path, "err", err)
}

// corrupt handles a failed integrity check: report loudly, count, and
// evict the artifact so the next computation overwrites it. Callers of
// the PersistentTier interface only ever observe a cache miss.
func (s *Store) corrupt(path string, reason error) {
	s.corruptions.Add(1)
	s.misses.Add(1)
	s.log.Error("store: corrupt artifact evicted (recomputing)", "path", path, "reason", reason.Error())
	if fi, err := os.Stat(path); err == nil {
		s.size.Add(-fi.Size())
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.log.Warn("store: could not evict corrupt artifact", "path", path, "err", err)
	}
}

// touch refreshes the artifact's access time so LRU eviction sees the
// read. Explicit Chtimes, because relatime/noatime mounts do not maintain
// atime on reads.
func (s *Store) touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// entry is one resident artifact observed by a scan.
type entry struct {
	path  string
	size  int64
	atime time.Time
}

// scan walks the object tree, returning total payload bytes and entries.
func (s *Store) scan() (int64, []entry, error) {
	var total int64
	var entries []entry
	root := filepath.Join(s.dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return nil // raced with an eviction; skip
		}
		total += fi.Size()
		entries = append(entries, entry{path: path, size: fi.Size(), atime: fi.ModTime()})
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("store: scanning %s: %w", root, err)
	}
	return total, entries, nil
}

// maybeEvict enforces the size cap: when the resident bytes exceed it,
// the stalest artifacts (by refreshed access time) are removed until the
// store fits again. The pass is serialised against other processes by a
// lock file and against other goroutines by a mutex; when the lock is
// held elsewhere the pass is simply skipped — the holder is doing the
// same work.
func (s *Store) maybeEvict() {
	if s.maxBytes <= 0 || s.size.Load() <= s.maxBytes {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if !s.tryLock() {
		return
	}
	defer s.unlock()

	total, entries, err := s.scan()
	if err != nil {
		s.log.Warn("store: eviction scan failed", "err", err)
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].atime.Before(entries[j].atime) })
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				s.log.Warn("store: eviction failed", "path", e.path, "err", err)
			}
			continue
		}
		total -= e.size
		s.evictions.Add(1)
	}
	s.size.Store(total)
}

// lockPath is the cross-process eviction lock file.
func (s *Store) lockPath() string { return filepath.Join(s.dir, "lock") }

// tryLock acquires the eviction lock file (O_EXCL create). A lock older
// than staleLockAge is presumed abandoned by a dead process and stolen.
func (s *Store) tryLock() bool {
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(s.lockPath(), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return true
		}
		fi, statErr := os.Stat(s.lockPath())
		if statErr != nil || time.Since(fi.ModTime()) < staleLockAge {
			return false
		}
		s.log.Warn("store: breaking stale eviction lock", "age", time.Since(fi.ModTime()).String())
		os.Remove(s.lockPath())
	}
	return false
}

func (s *Store) unlock() { os.Remove(s.lockPath()) }
