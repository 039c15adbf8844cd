// Package wal is the master's write-ahead log: an append-only,
// CRC-framed record log that makes the central server as crash-tolerant
// as the phones it coordinates. Every durable state change (a job
// accepted, a partition created, a report recorded, ...) is appended as
// one framed record before — or atomically with — the in-memory
// mutation, so a master killed at any instant can replay
// snapshot + log and resume where it died.
//
// On-disk layout (one directory):
//
//	wal-00000007.log      the live segment (framed records, append-only)
//	snapshot-00000007.wal the compaction snapshot covering all earlier
//	                      segments: framed records too, written
//	                      atomically (temp + rename)
//
// Record framing, in both files:
//
//	[4B length LE] [4B CRC32(IEEE) of body] [body = 1B type + payload]
//
// Recovery tolerates a torn tail — the final record of the final
// segment being truncated mid-write or failing its checksum — by
// dropping it with a logged warning and truncating the file back to the
// last good boundary. Corruption anywhere *before* the tail (a bad
// checksum with further bytes after it, an unskippable length) fails
// loudly instead: silent mid-log damage must never masquerade as a
// clean shorter history.
//
// The snapshot is written whole or not at all, so it has no torn tail:
// any damage in it fails Open.
//
// Compaction folds the log into a snapshot provided by the caller and
// rotates to a fresh segment. The ordering is crash-safe: the new
// (empty) segment is created first, then the snapshot is renamed into
// place, then old files are deleted — at every intermediate crash point
// the highest snapshot plus the segments at or above its sequence
// reconstruct the full state exactly once. Open hands back the
// snapshot's records followed by the segments', one sequence.
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

	"cwc/internal/obs"
)

// Record is one logical log entry: an opaque payload tagged with a
// caller-defined type byte.
type Record struct {
	Type    uint8
	Payload []byte
}

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append (durable acknowledgements;
	// the default).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background loop every syncInterval;
	// a crash may lose the records of the last interval.
	SyncInterval
	// SyncNone never fsyncs explicitly; durability is whatever the OS
	// page cache provides.
	SyncNone
)

// syncInterval is SyncInterval's fsync period.
const syncInterval = 100 * time.Millisecond

// ParseSyncPolicy maps a flag value to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

// Options tune a Log. The zero value is a safe default (fsync on every
// append, no automatic compaction threshold).
type Options struct {
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// CompactBytes, when positive, makes CompactDue report true once the
	// segments hold at least this many bytes.
	CompactBytes int64
	// Logger receives recovery warnings (torn tails dropped) and
	// background sync and compaction failures; nil discards them.
	Logger *obs.Logger
	// WriterHook, when set, wraps the segment file before records are
	// written through it (fault injection, metrics). If the wrapped
	// writer implements Sync() error, syncs flow through it too.
	WriterHook func(io.Writer) io.Writer
	// Metrics, when set, receives WAL instrumentation: append and fsync
	// latency histograms (cwc_wal_append_ms, cwc_wal_fsync_ms) plus
	// appended-bytes and error counters. Nil disables it at zero cost.
	Metrics *obs.Registry
}

const (
	headerSize = 8
	// MaxRecordBytes bounds one framed body (type byte + payload); a
	// declared length beyond it is treated as corruption, not allocation
	// advice.
	MaxRecordBytes = 64 << 20
)

// Sentinel errors.
var (
	// ErrCorrupt marks unrecoverable log damage (a bad record that is
	// not the torn tail).
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrTooLarge rejects a record over MaxRecordBytes.
	ErrTooLarge = errors.New("wal: record too large")
)

// tornError marks a damaged region that extends to the end of the data:
// the signature of a crash mid-append, recoverable by truncation when it
// sits at the tail of the final segment.
type tornError struct {
	off    int
	reason string
}

func (e *tornError) Error() string {
	return fmt.Sprintf("torn record at offset %d: %s", e.off, e.reason)
}

// scanRecords decodes framed records from b. It returns the decoded
// records, whose payloads are sub-slices of b, capped at their own ends,
// the offset just past the last good record, and an error
// describing what stopped the scan: nil (clean end), *tornError (damage
// extending to the end of b) or an ErrCorrupt-wrapped error (damage with
// further bytes behind it).
func scanRecords(b []byte) (recs []Record, good int, err error) {
	off := 0
	for off < len(b) {
		rest := len(b) - off
		if rest < headerSize {
			return recs, off, &tornError{off, fmt.Sprintf("%d-byte header fragment", rest)}
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		if n < 1 || n > MaxRecordBytes {
			if n > rest-headerSize {
				// The frame claims to extend past the data; whether the
				// length is insane or merely cut short, the damage runs
				// to the end.
				return recs, off, &tornError{off, fmt.Sprintf("declared length %d exceeds remaining %d bytes", n, rest-headerSize)}
			}
			if n == 0 && allZero(b[off:]) {
				// A zero-filled tail: a crash after an append extended the
				// file but before the data blocks were flushed leaves a
				// declared length of 0 with nothing but zeros behind it —
				// an ordinary post-crash artifact, recoverable by
				// truncation like any other torn tail.
				return recs, off, &tornError{off, fmt.Sprintf("zero-filled tail of %d bytes", rest)}
			}
			return recs, off, fmt.Errorf("%w: record at offset %d declares invalid length %d", ErrCorrupt, off, n)
		}
		if n > rest-headerSize {
			return recs, off, &tornError{off, fmt.Sprintf("declared length %d exceeds remaining %d bytes", n, rest-headerSize)}
		}
		body := b[off+headerSize : off+headerSize+n]
		if sum := binary.LittleEndian.Uint32(b[off+4:]); sum != crc32.ChecksumIEEE(body) {
			if off+headerSize+n == len(b) {
				// The bad record is the very last thing in the data: a
				// torn or bit-flipped tail, droppable.
				return recs, off, &tornError{off, "checksum mismatch in final record"}
			}
			return recs, off, fmt.Errorf("%w: checksum mismatch at offset %d with %d bytes following",
				ErrCorrupt, off, len(b)-(off+headerSize+n))
		}
		recs = append(recs, Record{Type: body[0], Payload: body[1:n:n]})
		off += headerSize + n
	}
	return recs, off, nil
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Log is an open write-ahead log directory.
type Log struct {
	dir  string
	opts Options

	recovered []Record

	mu     sync.Mutex
	f      *os.File  // guarded by mu
	w      io.Writer // guarded by mu
	seq    int       // guarded by mu
	size   int64     // guarded by mu; bytes in the live segment
	total  int64     // guarded by mu; bytes across all live segments (compaction trigger)
	dirty  bool      // guarded by mu
	closed bool      // guarded by mu
	failed error     // guarded by mu; set when a failed append could not be clawed back

	stopc chan struct{}
	wg    sync.WaitGroup

	// Instrumentation (nil when Options.Metrics is unset).
	appendHist  *obs.Histogram
	fsyncHist   *obs.Histogram
	appendBytes *obs.Counter
	appendErrs  *obs.Counter
}

func segmentName(seq int) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapshotName(seq int) string { return fmt.Sprintf("snapshot-%08d.wal", seq) }

// parseSeq extracts the sequence number from a prefixed, suffixed name.
func parseSeq(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// Open opens (creating if needed) the log directory, recovers the
// snapshot's records and every decodable segment record, repairs a torn
// tail, and readies the last segment for appending. The records are
// available from Recovered.
func Open(dir string, opts Options) (*Log, error) {
	if opts.Logger == nil {
		opts.Logger = obs.Discard()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	snapSeq := 0
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			// A writeFileAtomic staging file orphaned by a crash between
			// create and rename; never part of recovered state.
			_ = os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if _, ok := parseSeq(e.Name(), "snapshot-", ".json"); ok {
			// An older binary's snapshot: the segments beside it replay
			// only on top of it, and this binary does not read it.
			return nil, fmt.Errorf("wal: %s holds a JSON snapshot, %s, which this version does not read",
				dir, e.Name())
		}
		if n, ok := parseSeq(e.Name(), "snapshot-", ".wal"); ok && n > snapSeq {
			snapSeq = n
		}
	}
	l := &Log{dir: dir, opts: opts, stopc: make(chan struct{})}
	if m := opts.Metrics; m != nil {
		l.appendHist = m.NewHistogram("cwc_wal_append_ms", "WAL record append latency (write and policy fsync) in milliseconds")
		l.fsyncHist = m.NewHistogram("cwc_wal_fsync_ms", "WAL fsync latency in milliseconds")
		l.appendBytes = m.NewCounter("cwc_wal_appended_bytes_total", "bytes appended to the WAL, framing included")
		l.appendErrs = m.NewCounter("cwc_wal_append_errors_total", "failed WAL appends (clawed back or wedged)")
	}
	if snapSeq > 0 {
		b, err := os.ReadFile(filepath.Join(dir, snapshotName(snapSeq)))
		if err != nil {
			return nil, fmt.Errorf("wal: reading snapshot: %w", err)
		}
		recs, _, err := scanRecords(b)
		if err != nil {
			return nil, fmt.Errorf("wal: snapshot %s: %w", snapshotName(snapSeq), err)
		}
		l.recovered = recs
	}
	var segSeqs []int
	for _, e := range entries {
		n, ok := parseSeq(e.Name(), "wal-", ".log")
		if !ok {
			continue
		}
		if n < snapSeq {
			// Fully covered by the snapshot: a compaction died between
			// the rename and the deletes. Finish its job.
			_ = os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		segSeqs = append(segSeqs, n)
	}
	sort.Ints(segSeqs)
	for i, s := range segSeqs {
		path := filepath.Join(dir, segmentName(s))
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", filepath.Base(path), err)
		}
		recs, good, serr := scanRecords(b)
		if serr != nil {
			var torn *tornError
			if i == len(segSeqs)-1 && errors.As(serr, &torn) {
				l.opts.Logger.Warnf("wal: dropping torn tail of %s (%d bytes): %v",
					filepath.Base(path), len(b)-good, serr)
				if err := os.Truncate(path, int64(good)); err != nil {
					return nil, fmt.Errorf("wal: repairing %s: %w", filepath.Base(path), err)
				}
			} else {
				return nil, fmt.Errorf("wal: segment %s: %w", filepath.Base(path), serr)
			}
		}
		l.recovered = append(l.recovered, recs...)
		l.total += int64(good)
	}
	seq := snapSeq
	if len(segSeqs) > 0 {
		seq = segSeqs[len(segSeqs)-1]
	}
	if seq == 0 {
		seq = 1
	}
	l.seq = seq
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat segment: %w", err)
	}
	l.f = f
	l.size = st.Size()
	l.w = io.Writer(f)
	if opts.WriterHook != nil {
		l.w = opts.WriterHook(f)
	}
	if opts.Sync == SyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// Recovered returns the records decoded at Open: the snapshot's, then
// the segments' in append order. Each payload aliases the buffer its file
// was read into, which no one else holds: a payload read or sliced keeps
// that whole buffer alive, and writing into one writes into the record.
func (l *Log) Recovered() []Record { return l.recovered }

// LogBytes reports the bytes held in live segments (snapshot excluded).
func (l *Log) LogBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// CompactDue reports whether the segments have outgrown
// Options.CompactBytes.
func (l *Log) CompactDue() bool {
	if l.opts.CompactBytes <= 0 {
		return false
	}
	return l.LogBytes() >= l.opts.CompactBytes
}

// Append frames one record into a pooled Frame and writes it with
// AppendFrame.
func (l *Log) Append(typ uint8, payload []byte) error {
	f := NewFrame(typ, payload)
	defer f.Release()
	return l.AppendFrame(f.Bytes())
}

// AppendFrame writes one sealed frame (NewFrame, EncodeFrame, or one a
// StreamReader checked) to the live segment as given, fsyncing per the
// policy. A failed or short write — or, under SyncAlways, a failed
// fsync — is clawed back by truncating the segment to the last good
// boundary, so an errored append never leaves its record in the log and
// the log stays replayable; if even the claw-back fails the log wedges
// and every later call reports the wedge.
//
// The frame stays the caller's, so the writer a WriterHook returns must
// not retain the slice it is given once Write returns, as the io.Writer
// contract requires.
func (l *Log) AppendFrame(frame []byte) (err error) {
	if len(frame)-headerSize > MaxRecordBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(frame)-RecordHeader)
	}
	if l.appendHist != nil {
		start := time.Now()
		defer func() {
			l.appendHist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
			if err != nil {
				l.appendErrs.Inc()
			}
		}()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	n, err := l.w.Write(frame)
	if err != nil || n < len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		if terr := l.f.Truncate(l.size); terr != nil {
			l.failed = fmt.Errorf("wal: wedged: append failed (%v) and truncate failed: %w", err, terr)
			return l.failed
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.total += int64(len(frame))
	l.dirty = true
	if l.appendBytes != nil {
		l.appendBytes.Add(int64(len(frame)))
	}
	if l.opts.Sync == SyncAlways {
		if serr := l.syncLocked(); serr != nil {
			// The caller treats a failed append as not-persisted (Submit
			// does not consume the JobID), so the fully-written record
			// must not stay in the log: a retry would append a duplicate
			// and wreck replay. Claw it back like a failed write; wedge
			// if even that fails.
			if terr := l.f.Truncate(l.size - int64(len(frame))); terr != nil {
				l.failed = fmt.Errorf("wal: wedged: sync failed (%v) and truncate failed: %w", serr, terr)
				return l.failed
			}
			l.size -= int64(len(frame))
			l.total -= int64(len(frame))
			return serr
		}
	}
	return nil
}

// Sync forces appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	var err error
	if s, ok := l.w.(interface{ Sync() error }); ok {
		err = s.Sync()
	} else {
		err = l.f.Sync()
	}
	if l.fsyncHist != nil {
		l.fsyncHist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
	if err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.dirty = false
	return nil
}

func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := l.Sync(); err != nil && !errors.Is(err, ErrClosed) {
				l.opts.Logger.Warnf("wal: background sync: %v", err)
			}
		case <-l.stopc:
			return
		}
	}
}

// Compact folds everything logged so far into a snapshot produced by
// write — framed records (EncodeFrame, or frames a StreamReader checked)
// whose replay stands for every record logged before — and rotates to a
// fresh segment. The caller must guarantee that
// the state write serializes against its own mutations (the master holds
// its lock across the call); Compact itself serializes against appends.
func (l *Log) Compact(write func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	newSeq := l.seq + 1
	segPath := filepath.Join(l.dir, segmentName(newSeq))
	nf, err := os.OpenFile(segPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compacting: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(l.dir, snapshotName(newSeq)), write); err != nil {
		nf.Close()
		os.Remove(segPath)
		return fmt.Errorf("wal: compacting: %w", err)
	}
	// The snapshot is durable and covers every segment up to l.seq:
	// retire the old generation. Deletion failures only waste disk.
	if err := l.syncLocked(); err != nil {
		l.opts.Logger.Warnf("wal: compaction: final sync of retired segment: %v", err)
	}
	l.f.Close()
	for s := l.seq; s > 0; s-- {
		seg := filepath.Join(l.dir, segmentName(s))
		if err := os.Remove(seg); err != nil {
			if !os.IsNotExist(err) {
				l.opts.Logger.Warnf("wal: compaction: removing %s: %v", filepath.Base(seg), err)
			}
			break
		}
	}
	for s := newSeq - 1; s > 0; s-- {
		snap := filepath.Join(l.dir, snapshotName(s))
		if err := os.Remove(snap); err != nil {
			break
		}
	}
	l.f = nf
	l.w = io.Writer(nf)
	if l.opts.WriterHook != nil {
		l.w = l.opts.WriterHook(nf)
	}
	l.seq = newSeq
	l.size = 0
	l.total = 0
	l.dirty = false
	l.failed = nil
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	serr := l.syncLocked()
	cerr := l.f.Close()
	l.mu.Unlock()
	close(l.stopc)
	l.wg.Wait()
	if serr != nil {
		return serr
	}
	return cerr
}

// ScanSegment decodes one segment file standalone, returning its records,
// whose payloads alias the buffer the file was read into, and the byte
// offset at the end of each — i.e. every clean truncation point. Crash
// harnesses use it to enumerate kill points.
func ScanSegment(path string) ([]Record, []int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	recs, _, serr := scanRecords(b)
	if serr != nil {
		return nil, nil, fmt.Errorf("wal: scanning %s: %w", filepath.Base(path), serr)
	}
	offs := make([]int64, 0, len(recs))
	off := int64(0)
	for _, r := range recs {
		off += int64(headerSize + 1 + len(r.Payload))
		offs = append(offs, off)
	}
	return recs, offs, nil
}

// writeFileAtomic writes path through a buffered temp file in the same
// directory, fsyncs it, renames it over path, and fsyncs the directory —
// readers never observe a torn file and a crash cannot destroy a
// previous one.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(e error) error {
		f.Close()
		os.Remove(tmp)
		return e
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
