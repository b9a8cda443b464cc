// Package wal is a crash-consistent, segment-based write-ahead log for
// accepted ingest events — the durability layer under the live rolling
// window. The window *is* the model's training history (the paper's 30-day
// horizon); before this log existed it lived only in memory and a kill -9
// silently discarded every event since the last clean shutdown, restarting
// the window biased toward whatever arrived after the crash. With the log,
// every event the ingest queue accepts is appended (and fsynced per the
// configured policy) before it enters the window, and boot replays the
// segments to rebuild the window exactly.
//
// Layout of a log directory:
//
//	00000001.wal            oldest sealed segment
//	00000002.wal            ...
//	00000003.wal            active segment (appended to)
//	00000001.wal.corrupt    a segment whose header was unreadable (evidence)
//
// Each segment starts with an 8-byte header (magic "DVWL", version) and
// holds length-prefixed records framed with CRC32C (Castagnoli — the same
// machinery as the robust checksum footers): u32 payload length, u32 CRC,
// payload (a trace.Event in its binary encoding). Appends go through a
// group-commit buffer: Append only stages bytes, Commit makes the batch
// durable according to the sync policy. Recovery on Open scans every
// segment and truncates a torn tail at the last valid record — a partial
// write from a crash costs the torn record only, never a refusal to boot.
// Compaction deletes sealed segments whose newest event is below the
// window's horizon — past its age cap and older than any event it still
// holds — so the on-disk history is bounded by exactly what a reboot could
// ever need.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/darkvec/darkvec/internal/trace"
)

const (
	segmentSuffix = ".wal"
	corruptSuffix = ".corrupt"

	// headerSize is the segment header: magic [4]byte + version uint32.
	headerSize = 8
	// recordHeaderSize frames each record: u32 length + u32 CRC32C.
	recordHeaderSize = 8
	// maxRecordLen bounds one record's payload. Events encode to well under
	// 300 bytes (the vantage tag is capped); a larger declared length is
	// corruption and marks a torn boundary, never an allocation.
	maxRecordLen = 4096
)

var (
	segmentMagic = [4]byte{'D', 'V', 'W', 'L'}
	segVersion   = uint32(1)
	castagnoli   = crc32.MakeTable(crc32.Castagnoli)
)

// SyncPolicy selects when Commit pays for an fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs every committed batch before Commit returns: a
	// crash at any instant loses nothing that entered the window.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.Interval; a crash loses
	// at most that much of the newest traffic (the declared loss bound).
	SyncInterval
	// SyncOff never fsyncs explicitly: the OS page cache decides, so a
	// clean process exit loses nothing but a power loss may lose more.
	SyncOff
)

// String names the policy as the -walfsync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return "always"
}

// ParseSyncPolicy maps the -walfsync flag to a SyncPolicy. "" is
// SyncAlways, the zero SyncPolicy and the flag's default.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: invalid sync policy %q: want always, interval or off", s)
}

// SyncWriter is the write surface of an active segment file. Tests inject
// faults by wrapping it (Options.Wrap); faultio's writer-side injectors
// satisfy it structurally.
type SyncWriter interface {
	io.Writer
	Sync() error
}

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 64 MiB).
	SegmentBytes int64
	// SegmentAge rotates a non-empty active segment this long after its
	// first append (default 1h; <= 0 disables age rotation). Rotation is
	// what makes compaction possible — only sealed segments are deleted —
	// so a slow feed must still seal segments eventually.
	SegmentAge time.Duration
	// Policy selects the fsync discipline (default SyncAlways, the
	// zero value: durability is opt-out, not opt-in).
	Policy SyncPolicy
	// Interval is the SyncInterval fsync cadence (default 1s).
	Interval time.Duration
	// Horizon, when non-nil, returns the event-time horizon (Unix seconds)
	// below which history is useless — the window's age cap, lowered to
	// the oldest event it holds. After every rotation, sealed segments
	// older than the one it sealed whose newest event is below the horizon
	// are deleted. Returning 0 skips compaction.
	Horizon func() int64
	// Quarantine, when non-nil, receives records whose frame (length, CRC)
	// is intact but whose payload does not decode as an event. Returning a
	// non-nil error aborts the replay — the hook where darkvecd charges
	// its shared ingest error budget. nil skips such records silently.
	Quarantine func(error) error
	// Logf, when non-nil, narrates recovery, rotation and compaction.
	Logf func(format string, args ...any)
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// Wrap, when non-nil, wraps every active segment's write surface —
	// the fault-injection hook for fsync-failure and torn-append tests.
	Wrap func(SyncWriter) SyncWriter
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SegmentAge == 0 {
		o.SegmentAge = time.Hour
	}
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// segment is one on-disk segment's bookkeeping.
type segment struct {
	seq     uint64
	path    string
	bytes   int64 // file size including header
	records int64
	maxTs   int64 // newest event Ts in the segment (math.MinInt64-free: 0 for empty)
}

// Stats is the /v1/ingest view of a log.
type Stats struct {
	Policy    string `json:"policy"`
	Segments  int    `json:"segments"` // sealed + active
	Bytes     int64  `json:"bytes"`    // on-disk total, staged bytes included
	Appended  int64  `json:"appended"` // records appended this process
	Commits   int64  `json:"commits"`
	Syncs     int64  `json:"syncs"`
	Rotations int64  `json:"rotations"`
	Compacted int64  `json:"compacted_segments"`

	// Recovery outcome of the Open that produced this log.
	RecoveredRecords int64 `json:"recovered_records"`
	RecoveredBytes   int64 `json:"recovered_bytes"`
	TornTails        int64 `json:"torn_tails"`
	DroppedBytes     int64 `json:"dropped_bytes"`
}

// Log is an open write-ahead log. Append/Commit/Replay/Close are
// safe for concurrent use; the intended writer is the single ingest
// consumer goroutine, with HTTP handlers reading Stats concurrently.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	active   segment
	f        *os.File
	w        SyncWriter // f, possibly fault-wrapped
	bw       *bufio.Writer
	sealed   []segment // oldest first
	opened   time.Time // active segment creation (age rotation)
	lastSync time.Time
	closed   bool

	appended  int64
	commits   int64
	syncs     int64
	rotations int64
	compacted int64

	recoveredRecords int64
	recoveredBytes   int64
	tornTails        int64
	droppedBytes     int64

	scratch []byte
}

// Open recovers the log in dir (created if needed) and readies it for
// appending. Every existing segment is scanned: a torn tail — a record cut
// mid-write by a crash — is truncated at the last valid record, and a
// segment whose very header is unreadable is renamed aside as evidence.
// Open never refuses to boot over a partial write.
func Open(dir string, opts Options) (*Log, error) {
	if dir == "" {
		return nil, errors.New("wal: empty directory")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// segPath names segment seq.
func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d%s", seq, segmentSuffix))
}

// recover scans the directory, truncates torn tails, and opens the newest
// segment for appending (or creates the first one).
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		seq, perr := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if perr != nil {
			continue // foreign file; leave it alone
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	for _, seq := range seqs {
		path := l.segPath(seq)
		info, serr := scanSegmentFile(path, nil)
		if serr != nil {
			// Header unreadable or the file cannot be opened: nothing in it
			// is recoverable. Move it aside as evidence and boot anyway.
			if rerr := os.Rename(path, path+corruptSuffix); rerr == nil {
				l.opts.Logf("wal: segment %08d unreadable (%v); moved aside", seq, serr)
			} else {
				l.opts.Logf("wal: segment %08d unreadable (%v); rename failed: %v", seq, serr, rerr)
			}
			continue
		}
		if info.torn {
			if terr := os.Truncate(path, info.valid); terr != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", path, terr)
			}
			l.tornTails++
			l.droppedBytes += info.size - info.valid
			l.opts.Logf("wal: segment %08d: torn tail truncated at %d (dropped %d bytes)",
				seq, info.valid, info.size-info.valid)
		}
		l.recoveredRecords += info.records
		l.recoveredBytes += info.valid
		l.sealed = append(l.sealed, segment{
			seq: seq, path: path, bytes: info.valid, records: info.records, maxTs: info.maxTs,
		})
	}

	// Re-open the newest recovered segment for appending when it still has
	// room; otherwise seal it and start fresh.
	next := uint64(1)
	if n := len(l.sealed); n > 0 {
		last := l.sealed[n-1]
		next = last.seq + 1
		if last.bytes < l.opts.SegmentBytes {
			l.sealed = l.sealed[:n-1]
			f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("wal: reopening %s: %w", last.path, err)
			}
			l.install(f, last)
			return nil
		}
	}
	return l.createSegment(next)
}

// createSegment starts a new active segment (header written and staged).
func (l *Log) createSegment(seq uint64) error {
	path := l.segPath(seq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.install(f, segment{seq: seq, path: path})
	var hdr [headerSize]byte
	copy(hdr[:4], segmentMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	if _, err := l.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.active.bytes = headerSize
	return nil
}

// install points the writer machinery at f as the active segment.
func (l *Log) install(f *os.File, seg segment) {
	l.f = f
	var w SyncWriter = f
	if l.opts.Wrap != nil {
		w = l.opts.Wrap(f)
	}
	l.w = w
	l.bw = bufio.NewWriterSize(w, 1<<16)
	l.active = seg
	l.opened = l.opts.Clock()
}

// Append stages one event into the group-commit buffer. Nothing is durable
// — or visible to a replay — until Commit. The single ingest consumer
// appends a popped batch and commits once, so the fsync cost is paid per
// batch, not per event.
func (l *Log) Append(e trace.Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	l.scratch = e.AppendBinary(l.scratch[:0])
	payload := l.scratch
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.bw.Write(payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.active.bytes += int64(recordHeaderSize + len(payload))
	l.active.records++
	if e.Ts > l.active.maxTs {
		l.active.maxTs = e.Ts
	}
	l.appended++
	return nil
}

// Commit makes every staged append durable per the sync policy, then
// rotates and compacts if the active segment hit a bound. The declared
// loss window under a crash is: nothing (SyncAlways), up to Interval of
// traffic (SyncInterval), or whatever the OS had not written (SyncOff).
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	if err := l.commitLocked(); err != nil {
		return err
	}
	return l.maybeRotateLocked()
}

func (l *Log) commitLocked() error {
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: commit: %w", err)
	}
	l.commits++
	switch l.opts.Policy {
	case SyncAlways:
	case SyncInterval:
		if l.opts.Clock().Sub(l.lastSync) < l.opts.Interval {
			return nil
		}
	case SyncOff:
		return nil
	}
	if err := l.w.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs++
	l.lastSync = l.opts.Clock()
	return nil
}

// maybeRotateLocked seals the active segment when it crossed the size or
// age bound, starts the next one, and compacts.
func (l *Log) maybeRotateLocked() error {
	if l.active.records == 0 {
		return nil
	}
	if l.active.bytes < l.opts.SegmentBytes &&
		(l.opts.SegmentAge <= 0 || l.opts.Clock().Sub(l.opened) < l.opts.SegmentAge) {
		return nil
	}
	if err := l.sealLocked(); err != nil {
		return err
	}
	if err := l.createSegment(l.active.seq + 1); err != nil {
		return err
	}
	l.rotations++
	l.opts.Logf("wal: rotated to segment %08d", l.active.seq)
	if l.opts.Horizon != nil {
		if horizon := l.opts.Horizon(); horizon > 0 {
			// The segment just sealed holds the batch whose commit sealed
			// it, which the writer applies only after the commit returns:
			// the horizon cannot speak for it yet, so only older segments
			// are judged.
			l.compactLocked(horizon, len(l.sealed)-1)
		}
	}
	return nil
}

// sealLocked flushes, fsyncs and closes the active segment and moves it to
// the sealed list. A sealed segment is immutable: it is the unit of
// compaction and the only thing compaction ever deletes.
func (l *Log) sealLocked() error {
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	// Sealing always fsyncs regardless of policy: segment boundaries are
	// rare and a sealed segment claims to be stable history.
	if err := l.w.Sync(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	l.syncs++
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	l.sealed = append(l.sealed, l.active)
	l.f, l.w, l.bw = nil, nil, nil
	return nil
}

// compactLocked deletes sealed segments, oldest first and at most n, while
// their newest event is older than horizonTs (Unix seconds): events the
// window no longer holds, so no reboot could ever need them. The active
// segment is never touched. Returns how many segments were removed.
func (l *Log) compactLocked(horizonTs int64, n int) int {
	removed := 0
	for removed < n {
		seg := l.sealed[0]
		if seg.maxTs >= horizonTs {
			break // segments are time-ordered enough: newer ones can only be newer
		}
		if err := os.Remove(seg.path); err != nil {
			l.opts.Logf("wal: compaction of %08d failed: %v", seg.seq, err)
			break
		}
		l.opts.Logf("wal: compacted segment %08d (%d records aged past %d)", seg.seq, seg.records, horizonTs)
		l.sealed = l.sealed[1:]
		l.compacted++
		removed++
	}
	return removed
}

// Replay feeds every committed event — sealed segments first, then the
// active one, oldest record first — to fn. Records whose frame is intact
// but whose payload does not decode go to Options.Quarantine. fn returning
// an error aborts the replay with that error. Staged-but-uncommitted
// appends are flushed first so a replay never misses its own process's
// accepted events.
func (l *Log) Replay(fn func(trace.Event) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bw != nil {
		if err := l.bw.Flush(); err != nil {
			return fmt.Errorf("wal: replay flush: %w", err)
		}
	}
	paths := make([]string, 0, len(l.sealed)+1)
	for _, seg := range l.sealed {
		paths = append(paths, seg.path)
	}
	paths = append(paths, l.active.path)
	for _, path := range paths {
		_, err := scanSegmentFile(path, func(payload []byte) error {
			e, derr := trace.DecodeBinary(payload)
			if derr != nil {
				if l.opts.Quarantine != nil {
					return l.opts.Quarantine(derr)
				}
				l.opts.Logf("wal: replay: skipping undecodable record: %v", derr)
				return nil
			}
			return fn(e)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Policy:           l.opts.Policy.String(),
		Segments:         len(l.sealed) + 1,
		Appended:         l.appended,
		Commits:          l.commits,
		Syncs:            l.syncs,
		Rotations:        l.rotations,
		Compacted:        l.compacted,
		RecoveredRecords: l.recoveredRecords,
		RecoveredBytes:   l.recoveredBytes,
		TornTails:        l.tornTails,
		DroppedBytes:     l.droppedBytes,
	}
	st.Bytes = l.active.bytes
	for _, seg := range l.sealed {
		st.Bytes += seg.bytes
	}
	return st
}

// Close flushes and fsyncs staged appends and closes the active segment.
// The log stays on disk for the next boot's replay.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.bw.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	if err := l.w.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	l.syncs++
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	l.f, l.w, l.bw = nil, nil, nil
	return nil
}

// segInfo is the outcome of scanning one segment file.
type segInfo struct {
	size    int64 // file size as found
	valid   int64 // offset just past the last valid record
	records int64
	maxTs   int64
	torn    bool // bytes past valid exist (torn tail)
}

// scanSegmentFile reads a segment from disk, calling fn (when non-nil) for
// each intact record's payload. It returns an error only when the file
// cannot be opened or its header is not a WAL segment header — per-record
// damage is reported through segInfo, never as an error.
func scanSegmentFile(path string, fn func(payload []byte) error) (segInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return segInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return segInfo{}, err
	}
	info, err := scanRecords(bufio.NewReaderSize(f, 1<<16), fn)
	info.size = st.Size()
	info.torn = info.valid < info.size
	return info, err
}

// scanRecords is the record scanner shared by recovery, replay and the
// fuzz harness: it consumes the segment header then records until the
// stream ends or a frame stops validating. The boundary is deterministic —
// the same bytes always yield the same valid offset — and the scanner
// never panics on arbitrary input. A non-nil error means the header was
// wrong (not a segment at all); everything after a valid header is, at
// worst, a torn tail.
func scanRecords(r io.Reader, fn func(payload []byte) error) (segInfo, error) {
	info := segInfo{}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return info, fmt.Errorf("wal: segment header: %w", err)
	}
	if [4]byte(hdr[0:4]) != segmentMagic {
		return info, fmt.Errorf("wal: bad segment magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != segVersion {
		return info, fmt.Errorf("wal: unsupported segment version %d", v)
	}
	info.valid = headerSize
	var rec [recordHeaderSize]byte
	payload := make([]byte, maxRecordLen)
	for {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return info, nil // clean end or torn record header: boundary stands
		}
		length := binary.LittleEndian.Uint32(rec[0:4])
		if length == 0 || length > maxRecordLen {
			return info, nil // corrupt length: torn boundary
		}
		p := payload[:length]
		if _, err := io.ReadFull(r, p); err != nil {
			return info, nil // payload cut mid-write
		}
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(rec[4:8]) {
			return info, nil // bit rot or a torn rewrite: stop at the last good record
		}
		if fn != nil {
			if err := fn(p); err != nil {
				return info, err
			}
		}
		info.valid += int64(recordHeaderSize) + int64(length)
		info.records++
		if len(p) >= 8 {
			if ts := int64(binary.LittleEndian.Uint64(p[0:8])); ts > info.maxTs {
				info.maxTs = ts
			}
		}
	}
}
