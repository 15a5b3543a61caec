// Package wal is a self-contained write-ahead log: length-prefixed,
// CRC32-C-framed records appended to rotating segment files, with a
// pluggable fsync policy, checkpointing (write a full application snapshot,
// then truncate the segments it covers), and torn-tail detection on
// recovery.
//
// The log stores opaque payloads; internal/grid encodes site mutations into
// it so a crashed site daemon can reconstruct its exact pre-crash state:
// restore the latest checkpoint, replay every record after it, and discard
// the torn remains of the append a crash interrupted. Records are numbered
// by LSN (log sequence number, 1-based); a checkpoint covers every LSN up
// to and including its own.
//
// On disk a log directory holds:
//
//	wal-<firstLSN>.seg   segment: 16-byte header, then framed records
//	wal-<coveredLSN>.ckpt checkpoint: header + checksummed snapshot payload
//
// Durability discipline: checkpoints are written to a temp file, fsynced,
// renamed into place, and the directory fsynced before any segment is
// deleted, so recovery always finds either the old (checkpoint, segments)
// pair or the new one, never neither.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// On-disk magics; 8 bytes each.
const (
	segMagic  = "CWALSEG1"
	ckptMagic = "CWALCKP1"
	sealMagic = "CWALSEAL"
)

// sealFile marks a sealed log; see Seal.
const sealFile = "wal-sealed"

// ErrSealed is returned by every mutating operation on a sealed log. A
// fenced site seals its log so a stale incarnation can never journal again,
// even across restarts.
var ErrSealed = errors.New("wal: log sealed")

// ErrCompacted reports that a requested LSN was truncated by a checkpoint
// and is no longer readable; a replication stream that hits it must fall
// back to a snapshot bootstrap.
var ErrCompacted = errors.New("wal: records compacted")

// segHeaderSize is the segment file header: magic plus the LSN of the
// segment's first record.
const segHeaderSize = 16

// ckptHeaderSize is the checkpoint file header: magic, covered LSN, payload
// length, payload CRC32-C.
const ckptHeaderSize = 24

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record is
	// durable. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery, piggybacked
	// on appends (plus Sync and Close). Bounded data loss, amortized cost.
	SyncInterval
	// SyncNone never fsyncs on append; the OS flushes when it pleases.
	SyncNone
)

// ParseSyncPolicy maps the flag spellings "always", "interval", and "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or none)", s)
}

// String renders the flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return "always"
	}
}

// Options tunes a Log. The zero value is usable: 4 MiB segments, fsync on
// every append, no telemetry.
type Options struct {
	SegmentSize int64         // rotate the active segment past this size; default 4 MiB
	Sync        SyncPolicy    // when appends reach stable storage
	SyncEvery   time.Duration // SyncInterval cadence; default 100ms
	Metrics     *Metrics      // optional telemetry (see NewMetrics)
	Injector    *Injector     // crash injection for tests; nil in production
}

// TornTail describes the invalid bytes recovery found (and discarded) at the
// end of the log — the footprint of an append interrupted by a crash.
type TornTail struct {
	Segment string // file name of the damaged segment
	Offset  int64  // byte offset of the first invalid byte
	Dropped int64  // bytes discarded from Offset on
	Reason  string // why the tail failed to parse
}

func (t *TornTail) String() string {
	return fmt.Sprintf("torn tail in %s at byte %d: %s (%d bytes dropped)", t.Segment, t.Offset, t.Reason, t.Dropped)
}

// Recovery is what Open reconstructs from an existing log directory.
type Recovery struct {
	Checkpoint    []byte   // latest durable checkpoint payload; nil if none
	CheckpointLSN uint64   // records covered by the checkpoint (0 if none)
	Records       [][]byte // durable record payloads after the checkpoint, in LSN order
	NextLSN       uint64   // LSN the next append will receive
	TornTail      *TornTail
	Segments      int    // live segment files after tail repair
	Sealed        bool   // the log was sealed; appends will fail with ErrSealed
	SealInfo      []byte // the reason recorded by Seal, if sealed
}

// segInfo tracks one live segment.
type segInfo struct {
	name  string
	first uint64 // LSN of the segment's first record
	// ends is the segment's LSN → byte-offset index: ends[i] is the offset
	// just past the frame of record first+i, so that record's frame occupies
	// [start(i), ends[i]). It is complete for every live segment — Open's
	// scan rebuilds it, every append extends it, truncation drops it with the
	// segment — and it is what lets ReadRecords read only the bytes it
	// returns. A frame a failed write left half on disk never gets an entry.
	ends []int64
}

// start returns the byte offset of record first+i's frame.
func (sg *segInfo) start(i int) int64 {
	if i == 0 {
		return segHeaderSize
	}
	return sg.ends[i-1]
}

// size returns the segment's valid bytes, header included.
func (sg *segInfo) size() int64 { return sg.start(len(sg.ends)) }

// readSpan is one contiguous run of whole record frames in one segment file,
// planned under the log mutex and read outside it.
type readSpan struct {
	name     string
	off, end int64
	records  int
}

// Log is an append-only write-ahead log rooted in one directory. It is safe
// for concurrent use. After any I/O error the log is poisoned: every later
// operation returns the original error, because a partially written frame
// makes further appends unrecoverable. The caller restarts and re-opens.
type Log struct {
	mu  sync.Mutex
	dir string
	opt Options

	f        *os.File // active segment
	segs     []segInfo
	nextLSN  uint64
	lastSync time.Time
	dirty    bool
	err      error // sticky
	closed   bool
	sealed   bool
	sealInfo []byte
	scratch  []byte
}

func segName(first uint64) string  { return fmt.Sprintf("wal-%016x.seg", first) }
func ckptName(cover uint64) string { return fmt.Sprintf("wal-%016x.ckpt", cover) }

// fsyncDir flushes directory metadata (file creation, rename, deletion).
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open scans dir (creating it if missing), repairs a torn tail, and returns
// the log positioned for appending plus everything a caller needs to rebuild
// state: the newest durable checkpoint and the records after it. An empty or
// missing directory is a clean boot: no checkpoint, no records.
func Open(dir string, opt Options) (*Log, *Recovery, error) {
	if opt.SegmentSize <= segHeaderSize {
		opt.SegmentSize = 4 << 20
	}
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}

	var segNames, ckptNames []string
	var sealed bool
	var sealInfo []byte
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name)) // leftover from an interrupted checkpoint
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			segNames = append(segNames, name)
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".ckpt"):
			ckptNames = append(ckptNames, name)
		case name == sealFile:
			if info, err := parseSeal(readFileOrNil(filepath.Join(dir, name))); err == nil {
				sealed, sealInfo = true, info
			}
		}
	}

	rec := &Recovery{NextLSN: 1, Sealed: sealed, SealInfo: sealInfo}

	// Newest structurally valid checkpoint wins; damaged ones are skipped.
	sort.Sort(sort.Reverse(sort.StringSlice(ckptNames)))
	for _, name := range ckptNames {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		cover, payload, perr := parseCheckpoint(data)
		if perr != nil {
			continue
		}
		rec.Checkpoint = payload
		rec.CheckpointLSN = cover
		rec.NextLSN = cover + 1
		break
	}

	// Scan segments in LSN order, collecting record payloads past the
	// checkpoint. Anything after the first damage is dropped: records
	// beyond a tear were never acknowledged.
	sort.Strings(segNames)
	var segs []segInfo
	expect := rec.CheckpointLSN + 1
	for _, name := range segNames {
		path := filepath.Join(dir, name)
		if rec.TornTail != nil {
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		first, ok := parseSegHeader(data)
		bad := ""
		switch {
		case !ok:
			bad = "invalid segment header"
		case len(segs) > 0 && first != expect:
			bad = "segment sequence gap"
		case len(segs) == 0 && first > expect:
			// Records between the checkpoint and this segment are missing.
			bad = "orphan segment past a hole"
		}
		if bad != "" {
			rec.TornTail = &TornTail{Segment: name, Offset: 0, Dropped: int64(len(data)), Reason: bad}
			os.Remove(path)
			continue
		}
		lsn := first
		var ends []int64
		off := int64(segHeaderSize)
		consumed, n, reason, _ := scanRecords(data[segHeaderSize:], func(p []byte, _ bool) error {
			if lsn > rec.CheckpointLSN {
				rec.Records = append(rec.Records, append([]byte(nil), p...))
			}
			lsn++
			off += frameSize(len(p))
			ends = append(ends, off)
			return nil
		})
		size := segHeaderSize + consumed
		if reason != "" {
			rec.TornTail = &TornTail{Segment: name, Offset: size, Dropped: int64(len(data)) - size, Reason: reason}
			if err := os.Truncate(path, size); err != nil {
				return nil, nil, fmt.Errorf("wal: repair %s: %w", name, err)
			}
		}
		segs = append(segs, segInfo{name: name, first: first, ends: ends})
		expect = first + n
		if expect > rec.NextLSN {
			rec.NextLSN = expect
		}
	}

	l := &Log{dir: dir, opt: opt, segs: segs, nextLSN: rec.NextLSN, lastSync: time.Now(), sealed: sealed, sealInfo: sealInfo}
	if len(segs) == 0 {
		if err := l.newSegmentLocked(); err != nil {
			return nil, nil, err
		}
	} else {
		active := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, active.name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
	}
	rec.Segments = len(l.segs)
	opt.Metrics.setSegments(len(l.segs))
	return l, rec, nil
}

// parseSegHeader validates a segment header and returns its first LSN.
func parseSegHeader(data []byte) (first uint64, ok bool) {
	if len(data) < segHeaderSize || string(data[:8]) != segMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint64(data[8:16]), true
}

// parseCheckpoint validates a checkpoint file and returns the LSN it covers
// and its snapshot payload. It never panics, whatever the input.
func parseCheckpoint(data []byte) (cover uint64, payload []byte, err error) {
	if len(data) < ckptHeaderSize {
		return 0, nil, fmt.Errorf("wal: checkpoint too short")
	}
	if string(data[:8]) != ckptMagic {
		return 0, nil, fmt.Errorf("wal: bad checkpoint magic")
	}
	cover = binary.LittleEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint32(data[16:20])
	if uint64(n) != uint64(len(data)-ckptHeaderSize) {
		return 0, nil, fmt.Errorf("wal: checkpoint length mismatch")
	}
	payload = data[ckptHeaderSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[20:24]) {
		return 0, nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	return cover, payload, nil
}

// readFileOrNil reads path, mapping any error to nil bytes.
func readFileOrNil(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return data
}

// parseSeal validates a seal marker and returns the reason payload recorded
// when the log was sealed. It never panics, whatever the input.
func parseSeal(data []byte) ([]byte, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("wal: seal marker too short")
	}
	if string(data[:8]) != sealMagic {
		return nil, fmt.Errorf("wal: bad seal magic")
	}
	n := binary.LittleEndian.Uint32(data[8:12])
	if uint64(n) != uint64(len(data)-16) {
		return nil, fmt.Errorf("wal: seal length mismatch")
	}
	info := data[16:]
	if crc32.Checksum(info, castagnoli) != binary.LittleEndian.Uint32(data[12:16]) {
		return nil, fmt.Errorf("wal: seal checksum mismatch")
	}
	return info, nil
}

// newSegmentLocked starts a fresh active segment whose first record will be
// l.nextLSN. The caller holds the log's state (Log methods serialize through
// the site or their own callers; Log itself has no internal goroutines).
func (l *Log) newSegmentLocked() error {
	name := segName(l.nextLSN)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return l.fail(err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], l.nextLSN)
	if _, err := l.opt.Injector.write(f, hdr[:]); err != nil {
		f.Close()
		return l.fail(err)
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		return l.fail(err)
	}
	l.f = f
	l.segs = append(l.segs, segInfo{name: name, first: l.nextLSN})
	l.opt.Metrics.setSegments(len(l.segs))
	return nil
}

// fail poisons the log with err and returns the wrapped error.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return fmt.Errorf("wal: %w", err)
}

// syncDir flushes the log directory's metadata, honoring crash injection.
func (l *Log) syncDir() error {
	if l.opt.Injector.Tripped() {
		return ErrInjected
	}
	return fsyncDir(l.dir)
}

// Append writes one record and returns its LSN. Whether the record is on
// stable storage when Append returns depends on the sync policy. It is the
// one-record case of AppendBatch.
func (l *Log) Append(payload []byte) (uint64, error) {
	one := [1][]byte{payload}
	return l.AppendBatch(one[:])
}

// AppendBatch writes several records as one group commit: every record is
// framed into one buffer and written with a single write, then the active
// segment is fsynced at most once (per the sync policy), amortizing the
// SyncAlways penalty across the batch. It returns the LSN of the last record.
// On failure the log is poisoned — none of the batch is acknowledged.
//
// On disk the batch is atomic: all but its final record carry the batch bit,
// so recovery after a crash that lands inside the batch drops the whole
// batch, never a prefix of it. To keep that property a batch never spans
// segments — rotation happens before the batch (the active segment may
// overflow SegmentSize by up to one batch).
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	if l.err != nil {
		return 0, fmt.Errorf("wal: %w", l.err)
	}
	if l.sealed {
		return 0, ErrSealed
	}
	if len(payloads) == 0 {
		return l.nextLSN - 1, nil
	}
	var total int64
	for _, payload := range payloads {
		if len(payload) > MaxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), MaxRecord)
		}
		total += frameSize(len(payload))
	}
	active := &l.segs[len(l.segs)-1]
	if active.size()+total > l.opt.SegmentSize && len(active.ends) > 0 {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
		active = &l.segs[len(l.segs)-1]
	}
	t0 := time.Now()
	l.scratch = l.scratch[:0]
	for i, payload := range payloads {
		l.scratch = appendFrame(l.scratch, payload, i < len(payloads)-1)
	}
	if _, err := l.opt.Injector.write(l.f, l.scratch); err != nil {
		return 0, l.fail(err)
	}
	l.opt.Metrics.observeAppend(t0, len(payloads), total)
	off := active.size()
	for _, payload := range payloads {
		off += frameSize(len(payload))
		active.ends = append(active.ends, off)
	}
	l.nextLSN += uint64(len(payloads))
	l.dirty = true
	switch l.opt.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opt.SyncEvery {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return l.nextLSN - 1, nil
}

// rotateLocked seals the active segment and starts a new one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return l.fail(err)
	}
	return l.newSegmentLocked()
}

// syncLocked fsyncs the active segment if it has unflushed appends.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	t0 := time.Now()
	if err := l.opt.Injector.sync(l.f); err != nil {
		return l.fail(err)
	}
	l.opt.Metrics.observeFsync(t0)
	l.lastSync = time.Now()
	l.dirty = false
	return nil
}

// Sync forces unflushed appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.err != nil {
		return fmt.Errorf("wal: %w", l.err)
	}
	return l.syncLocked()
}

// Checkpoint makes snapshot the log's new recovery baseline: it covers every
// record appended so far, so once the checkpoint is durable all current
// segments are deleted and a fresh one is started. The write is atomic —
// temp file, fsync, rename, directory fsync — so a crash at any point leaves
// either the previous baseline or the new one intact.
//
// Callers must prevent concurrent Appends (internal/grid drains its flush
// stage and holds the site lock across snapshot and checkpoint), otherwise a
// record appended between snapshot and checkpoint would be wrongly truncated.
func (l *Log) Checkpoint(snapshot []byte) error {
	return l.CheckpointRetain(snapshot, 0)
}

// CheckpointRetain is Checkpoint with a retention floor: every record with
// LSN >= keep stays readable afterwards, so a replication stream that has
// only acknowledged up to keep-1 can still be served from the segments.
// Only segments wholly below keep are deleted. keep == 0 (or keep past the
// log's end) retains nothing beyond the new baseline — plain Checkpoint.
func (l *Log) CheckpointRetain(snapshot []byte, keep uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.err != nil {
		return fmt.Errorf("wal: %w", l.err)
	}
	if l.sealed {
		return ErrSealed
	}
	t0 := time.Now()
	cover := l.nextLSN - 1

	hdr := make([]byte, ckptHeaderSize)
	copy(hdr[:8], ckptMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], cover)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(snapshot)))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Checksum(snapshot, castagnoli))

	tmp := filepath.Join(l.dir, "wal-checkpoint.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return l.fail(err)
	}
	if _, err := l.opt.Injector.write(f, hdr); err == nil {
		_, err = l.opt.Injector.write(f, snapshot)
	}
	if err == nil {
		err = l.opt.Injector.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return l.fail(err)
	}
	final := filepath.Join(l.dir, ckptName(cover))
	if l.opt.Injector.Tripped() {
		return l.fail(ErrInjected)
	}
	if err := os.Rename(tmp, final); err != nil {
		return l.fail(err)
	}
	if err := l.syncDir(); err != nil {
		return l.fail(err)
	}

	// The new baseline is durable: drop the covered segments the retention
	// floor allows and every stale checkpoint.
	if keep == 0 || keep >= l.nextLSN {
		// Nothing to retain: delete every segment and start fresh.
		if err := l.f.Close(); err != nil {
			return l.fail(err)
		}
		for _, sg := range l.segs {
			os.Remove(filepath.Join(l.dir, sg.name))
		}
		l.segs = l.segs[:0]
		l.dirty = false
		l.removeStaleCheckpoints(cover)
		if err := l.newSegmentLocked(); err != nil {
			return err
		}
	} else {
		// A replica stream still needs records from keep on: delete only
		// segments wholly below it and keep appending to the active one.
		cut := 0
		for cut+1 < len(l.segs) && l.segs[cut+1].first <= keep {
			cut++
		}
		for _, sg := range l.segs[:cut] {
			os.Remove(filepath.Join(l.dir, sg.name))
		}
		l.segs = append(l.segs[:0], l.segs[cut:]...)
		l.removeStaleCheckpoints(cover)
		l.opt.Metrics.setSegments(len(l.segs))
	}
	l.opt.Metrics.observeCheckpoint(t0)
	return nil
}

// removeStaleCheckpoints deletes every checkpoint file except the one
// covering cover. Best effort: a leftover stale checkpoint is harmless
// (Open prefers the newest valid one).
func (l *Log) removeStaleCheckpoints(cover uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".ckpt") && name != ckptName(cover) {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
}

// NextLSN returns the sequence number the next append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// OldestLSN returns the LSN of the oldest record still readable from the
// segments, or NextLSN when no records remain (fresh log, or everything
// truncated by a checkpoint).
func (l *Log) OldestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return l.nextLSN
	}
	return l.segs[0].first
}

// ReadRecords reads back record payloads starting at LSN from, in order,
// stopping after roughly maxBytes of payload (maxBytes <= 0 uses 256 KiB); at
// least one record is returned when any is available. It is the segment
// streaming iterator behind replication: a primary tails its own log to feed
// standbys, including records not yet fsynced (a replica holding more than
// the primary's stable storage is harmless). If from precedes the oldest
// retained segment the caller gets ErrCompacted and must bootstrap from a
// snapshot instead. Reading works on sealed and even poisoned logs — draining
// a fenced log is exactly the failover path.
//
// The cost is that of the records returned, whatever the segment holds: the
// per-segment offset index turns (from, maxBytes) into byte ranges under the
// log mutex, and the bytes are read after it is released, so a reader never
// stands between an Append and the disk. A segment a racing checkpoint
// deleted in between is reported as ErrCompacted.
func (l *Log) ReadRecords(from uint64, maxBytes int) ([][]byte, error) {
	if from == 0 {
		from = 1
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 10
	}
	l.mu.Lock()
	spans, err := l.tailSpansLocked(from, maxBytes)
	l.mu.Unlock()
	if err != nil || len(spans) == 0 {
		return nil, err
	}
	n := 0
	for _, sp := range spans {
		n += sp.records
	}
	out := make([][]byte, 0, n)
	for _, sp := range spans {
		if out, err = l.readSpan(sp, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tailSpansLocked resolves a ReadRecords request into the byte ranges that
// hold the records it returns: from the record numbered from, through the
// record whose payload brings the total to maxBytes, across as many segments
// as that takes. The caller holds l.mu.
func (l *Log) tailSpansLocked(from uint64, maxBytes int) ([]readSpan, error) {
	if l.closed {
		return nil, fmt.Errorf("wal: log closed")
	}
	if from >= l.nextLSN {
		return nil, nil
	}
	if len(l.segs) == 0 || from < l.segs[0].first {
		return nil, ErrCompacted
	}
	// Segments are contiguous in LSN, so the last one starting at or before
	// from holds it.
	i := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].first > from }) - 1
	var spans []readSpan
	for got := 0; i < len(l.segs) && got < maxBytes; i++ {
		sg := &l.segs[i]
		k := int(from - sg.first)
		if k >= len(sg.ends) {
			break
		}
		sp := readSpan{name: sg.name, off: sg.start(k)}
		for ; k < len(sg.ends) && got < maxBytes; k++ {
			got += int(sg.ends[k]-sg.start(k)) - frameHeaderSize
			sp.end = sg.ends[k]
			sp.records++
		}
		from += uint64(sp.records)
		spans = append(spans, sp)
	}
	return spans, nil
}

// readSpan reads one planned byte range and appends its record payloads to
// out. It runs outside the log mutex: the range was valid when planned and
// segment files are append-only, so the only thing that can change under it
// is the file's deletion by a checkpoint.
func (l *Log) readSpan(sp readSpan, out [][]byte) ([][]byte, error) {
	f, err := os.Open(filepath.Join(l.dir, sp.name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrCompacted
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	buf := make([]byte, sp.end-sp.off)
	if _, err := f.ReadAt(buf, sp.off); err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", sp.name, err)
	}
	l.opt.Metrics.observeRead(len(buf))
	// The index says where frames begin, so batch bits do not matter here;
	// the checksums still do.
	for len(buf) > 0 {
		payload, _, reason := parseFrame(buf)
		if reason != "" {
			return nil, fmt.Errorf("wal: %s: damaged record at byte %d: %s", sp.name, sp.end-int64(len(buf)), reason)
		}
		out = append(out, payload)
		buf = buf[frameSize(len(payload)):]
	}
	return out, nil
}

// SetNextLSN repositions a pristine log (no records or checkpoints ever
// written) so its first record receives LSN next. A standby seeding itself
// from a primary snapshot uses this to keep its local log in the primary's
// LSN space, so checkpoints and stream positions line up exactly.
func (l *Log) SetNextLSN(next uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.err != nil {
		return fmt.Errorf("wal: %w", l.err)
	}
	if l.sealed {
		return ErrSealed
	}
	if next == 0 {
		return fmt.Errorf("wal: LSNs are 1-based")
	}
	if l.nextLSN != 1 || len(l.segs) != 1 || len(l.segs[0].ends) != 0 {
		return fmt.Errorf("wal: SetNextLSN on a non-pristine log")
	}
	if next == l.nextLSN {
		return nil
	}
	old := l.segs[0]
	if err := l.f.Close(); err != nil {
		return l.fail(err)
	}
	os.Remove(filepath.Join(l.dir, old.name))
	l.segs = l.segs[:0]
	l.nextLSN = next
	return l.newSegmentLocked()
}

// Seal durably marks the log read-only: every later mutation fails with
// ErrSealed, here and after any number of re-opens, until an operator
// removes the marker file. A site that learns it has been fenced (a standby
// was promoted in its place) seals its log so the stale incarnation can
// never journal again. info records why, for the operator. Sealing an
// already-poisoned log is allowed — that is the expected zombie state.
func (l *Log) Seal(info []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.sealed {
		return nil
	}
	// Flush whatever the tail holds so the seal marks a clean boundary; on a
	// poisoned log there is nothing more to save.
	if l.err == nil && l.f != nil {
		l.syncLocked()
	}
	hdr := make([]byte, 16)
	copy(hdr[:8], sealMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(info)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(info, castagnoli))
	tmp := filepath.Join(l.dir, sealFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err = f.Write(hdr); err == nil {
		_, err = f.Write(info)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, sealFile)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := fsyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.sealed = true
	l.sealInfo = append([]byte(nil), info...)
	return nil
}

// SealedInfo reports whether the log is sealed and the reason recorded by
// Seal.
func (l *Log) SealedInfo() ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealInfo, l.sealed
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes and releases the active segment. The log is unusable after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.err == nil {
		err = l.syncLocked()
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil && l.err == nil {
			err = cerr
		}
	}
	return err
}
