package persist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
)

// walRecord is one WAL entry on disk: a service journal record stamped with
// its sequence number, one JSON object per line. The sequence is strictly
// increasing across the segments; replay and segment deletion key off it.
type walRecord struct {
	Seq uint64 `json:"seq"`
	service.Record
}

// segment is one WAL file, named by the first sequence it may hold.
type segment struct {
	path  string
	first uint64
}

// segmentName names a segment; the fixed width sorts names by sequence.
func segmentName(first uint64) string { return fmt.Sprintf("wal-%020d.jsonl", first) }

// listSegments returns the WAL segments in dir, in sequence order.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		var first uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.jsonl", &first); err == nil && e.Name() == segmentName(first) {
			segs = append(segs, segment{filepath.Join(dir, e.Name()), first})
		}
	}
	return segs, nil
}

// SyncPolicy selects how the WAL trades durability for append latency.
type SyncPolicy int

const (
	// SyncBatch (the default) acknowledges appends once they are buffered
	// and fsyncs the batch at most every Options.SyncInterval — group
	// commit. A hard crash can lose at most the records of the current
	// interval; graceful shutdown and snapshots lose nothing. This keeps
	// fsync latency off the churn hot path (the bench gate prices it).
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs every append before acknowledging it: no
	// acknowledged record is ever lost, at ~one disk flush per mutation.
	// The fsync runs outside the append mutex, so concurrent appends
	// overlap their fsyncs instead of taking turns at the disk.
	SyncAlways
)

// WAL is the append-only churn log. It implements service.BatchJournal, so
// attaching it to an owner (Owner.SetJournal) makes every mutation
// durable. Safe for concurrent appends, which go to the last segment.
type WAL struct {
	// syncMu keeps the file an fsync outside mu runs on open and current.
	// Appends under SyncAlways hold it shared across their fsyncs; Sync,
	// whose fsync also runs outside mu so appends go on meanwhile, and cut
	// and Close, which switch and close the file, take it exclusively.
	// Taken before mu.
	syncMu sync.RWMutex
	mu     sync.Mutex
	dir    string
	f      *os.File // the last segment
	w      *bufio.Writer
	seq    uint64 // last assigned sequence
	dirty  bool   // buffered-but-unsynced records exist
	closed bool
	// failed, once set, fail-stops the WAL with the error that caused it: a
	// failed buffered write, flush or fsync, or directory fsync after a cut.
	// Records may sit in the file or buffer while the caller was told they
	// failed, and after a failed write under sequences never assigned, so
	// further appends would let memory and log diverge or regress the
	// on-disk order. A restart (which replays the log as truth, torn tail
	// included) clears the condition.
	failed error
	// Under SyncAlways each append's fsync takes the next ticket under mu
	// before it starts, and marks it returned, in ticket order, by
	// advancing fsynced, the count of fsyncs returned; fsyncDone, on mu,
	// wakes the appends waiting for it to advance (fsyncAppendLocked).
	tickets   uint64
	fsynced   uint64
	fsyncDone sync.Cond

	policy   SyncPolicy
	interval time.Duration
	stop     chan struct{} // closes the background flusher
	done     chan struct{}
}

// openWAL opens the last segment in dir for appending and truncates its
// torn tail, if any; a cut syncs a segment before the next exists, so no
// other can be torn. A directory without segments has its wal.jsonl
// renamed to the first, or gets one named past minSeq, which floors the
// next sequence: the snapshot's cut-point outlives the segments it covers.
func openWAL(dir string, policy SyncPolicy, interval time.Duration, minSeq uint64) (*WAL, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	legacy := filepath.Join(dir, "wal.jsonl") // the one-file WAL written before segments existed
	if len(segs) == 0 {
		segs = []segment{{filepath.Join(dir, segmentName(1)), 1}} // wal.jsonl's sequences start at 1 or later
		if err = os.Rename(legacy, segs[0].path); os.IsNotExist(err) {
			segs = []segment{{filepath.Join(dir, segmentName(minSeq+1)), minSeq + 1}}
			err = os.WriteFile(segs[0].path, nil, 0o644)
		}
		if err != nil {
			return nil, err
		}
	} else if _, err := os.Stat(legacy); err == nil {
		return nil, fmt.Errorf("persist: %s beside WAL segments", legacy)
	}
	// The segment's entry must be durable before appends to it are.
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	last := segs[len(segs)-1]
	end, lastSeq, err := last.tail()
	if err != nil {
		return nil, err
	}
	if err := os.Truncate(last.path, end); err != nil {
		return nil, fmt.Errorf("persist: truncate torn WAL tail: %w", err)
	}
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = DefaultSyncInterval
	}
	w := &WAL{
		dir:      dir,
		f:        f,
		w:        bufio.NewWriter(f),
		seq:      max(minSeq, last.first-1, lastSeq), // an empty last segment was cut at first-1
		policy:   policy,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.fsyncDone.L = &w.mu
	go w.flusher()
	return w, nil
}

// scanSegments streams the records of segs, in order, to fn (Owner.Apply
// in Load). Sequences must rise across all of segs and stay below the next
// segment's first. Only the last segment may end in a torn record.
func scanSegments(segs []segment, fn func(uint64, service.Record) error) error {
	var prev uint64
	for i, seg := range segs {
		next := uint64(math.MaxUint64) // none: seg is the last
		if i+1 < len(segs) {
			next = segs[i+1].first
		}
		if _, err := seg.scan(&prev, next, fn); err != nil {
			return err
		}
	}
	return nil
}

// scan streams seg's records, each above *prev, which it advances, and
// below next, to fn, and returns where its valid prefix ends. A torn tail
// — a final line that is incomplete or fails to parse — is the residue of
// a crash mid-append in the last segment, but corruption before a later
// one, as is a malformed record with more records after it.
func (seg segment) scan(prev *uint64, next uint64, fn func(uint64, service.Record) error) (int64, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var end int64
	for {
		line, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return 0, err
		}
		if len(line) == 0 {
			return end, nil
		}
		var rec walRecord
		// A final line without a newline is torn even if it parses.
		if uerr := json.Unmarshal(line, &rec); err != nil || uerr != nil {
			if _, perr := r.Peek(1); perr != io.EOF {
				return 0, fmt.Errorf("persist: %s: corrupt record at offset %d (not the final record): %w", seg.path, end, uerr)
			}
			if next != math.MaxUint64 {
				return 0, fmt.Errorf("persist: %s: torn record at offset %d, but a later segment follows", seg.path, end)
			}
			return end, nil
		}
		if rec.Seq <= *prev || rec.Seq >= next {
			return 0, fmt.Errorf("persist: %s: sequence %d at offset %d is not above the previous record's %d and below the next segment's first %d",
				seg.path, rec.Seq, end, *prev, next)
		}
		if err := fn(rec.Seq, rec.Record); err != nil {
			return 0, err
		}
		*prev = rec.Seq
		end += int64(len(line))
	}
}

// tail returns where seg's valid prefix ends and the sequence of its last
// record, for a seg that is the last segment. It judges the records as
// scan does, but it decodes only the last complete line, and the line
// before it when that one does not decode and so is torn; every other line
// it only checks for JSON syntax, since Load's scan decodes them all next.
func (seg segment) tail() (end int64, last uint64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var prev, final []byte // the last two syntactically valid lines
	torn := false          // a torn line follows final
	for {
		line, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return 0, 0, err
		}
		if len(line) == 0 {
			break
		}
		// A final line without a newline is torn even if it parses.
		if err != nil || !json.Valid(line) {
			if _, perr := r.Peek(1); perr != io.EOF {
				return 0, 0, fmt.Errorf("persist: %s: corrupt record at offset %d (not the final record)", seg.path, end)
			}
			torn = true
			break
		}
		prev, final = final, line
		end += int64(len(line))
	}
	var rec walRecord
	if final == nil || json.Unmarshal(final, &rec) == nil {
		return end, rec.Seq, nil
	}
	if end -= int64(len(final)); torn {
		return 0, 0, fmt.Errorf("persist: %s: corrupt record at offset %d (not the final record)", seg.path, end)
	}
	if prev == nil {
		return end, 0, nil
	}
	var before walRecord
	if err := json.Unmarshal(prev, &before); err != nil {
		return 0, 0, fmt.Errorf("persist: %s: corrupt record at offset %d (not the final record): %w", seg.path, end-int64(len(prev)), err)
	}
	return end, before.Seq, nil
}

// Log implements service.Journal as a batch of one.
func (w *WAL) Log(rec service.Record) (uint64, error) {
	return w.LogBatch([]service.Record{rec})
}

// LogBatch implements service.BatchJournal: it encodes the records, with
// no lock held, and appends them with LogEncoded. An encoding error leaves
// the log untouched.
func (w *WAL) LogBatch(recs []service.Record) (uint64, error) {
	var small [4][]byte // so a small batch allocates no slice for its lines
	data, err := Encode(small[:0], recs)
	if err != nil {
		return 0, err
	}
	return w.LogEncoded(data)
}

// Encode appends each record's encoding to dst, the bytes LogEncoded takes
// for it: its JSON object, never empty, since op, id, u and v are always
// present. Callers encode with no lock held, however large a record is.
func Encode(dst [][]byte, recs []service.Record) ([][]byte, error) {
	for i, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("persist: encode WAL record %d of batch: %w", i, err)
		}
		dst = append(dst, line)
	}
	return dst, nil
}

// LogEncoded is the WAL's one append, of records Encode encoded. It
// assigns them K consecutive sequences and appends them under one mutex
// acquisition and — under SyncAlways — one fsync for the whole batch, so
// a flush of K edits costs one disk round instead of K. Under SyncBatch
// the background flusher syncs within Options.SyncInterval. Each line is
// the record with its sequence spliced in as the first field, the bytes
// json.Marshal writes for a walRecord, so however large a record is, the
// mutex covers no encoding. Returns the
// sequence of the last record. A failed write or fsync fail-stops the WAL.
//
// Under SyncAlways the lines are flushed under the mutex, in sequence
// order, and fsynced outside it (fsyncAppendLocked).
func (w *WAL) LogEncoded(data [][]byte) (uint64, error) {
	if w.policy == SyncAlways {
		w.syncMu.RLock() // keeps the file open and current until the fsync returns
		defer w.syncMu.RUnlock()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("persist: WAL is closed")
	}
	if w.failed != nil {
		return 0, fmt.Errorf("persist: WAL fail-stopped; restart to recover: %w", w.failed)
	}
	if len(data) == 0 {
		return w.seq, nil
	}
	for i, rec := range data {
		w.w.WriteString(`{"seq":`)
		w.w.Write(strconv.AppendUint(w.w.AvailableBuffer(), w.seq+uint64(i)+1, 10))
		w.w.WriteByte(',')
		w.w.Write(rec[1:])
		if err := w.w.WriteByte('\n'); err != nil { // bufio's error is sticky
			w.failed = fmt.Errorf("persist: append WAL batch: %w", err)
			return 0, w.failed
		}
	}
	w.seq += uint64(len(data))
	w.dirty = true
	seq := w.seq
	if w.policy == SyncAlways {
		if err := w.fsyncAppendLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// fsyncAppendLocked is a SyncAlways append's fsync; the caller holds w.mu,
// and syncMu shared. It flushes the buffer, then fsyncs the last segment
// with w.mu released, so appends that arrive meanwhile write their lines
// and fsync alongside it, and overlapping fsyncs can share one file-system
// journal commit, where under the mutex each waited for the one before.
// The fsync takes the next ticket before it starts and, once it returned,
// marks it returned in ticket order; the append then waits until every
// fsync that had started by then has returned too, and fails if the WAL
// fail-stopped by then. Linux reports a failed writeback once per open
// file (errseq, since 4.13), so of two fsyncs on one file that overlap
// only one may see the error, and a nil from the other does not make its
// pages durable.
func (w *WAL) fsyncAppendLocked() error {
	f, err := w.flushLocked()
	if f == nil {
		return err
	}
	ticket := w.tickets
	w.tickets++
	w.mu.Unlock()
	err = syncFile(f)
	w.mu.Lock()
	if err != nil && w.failed == nil {
		w.failed = fmt.Errorf("persist: fsync WAL: %w", err)
	}
	started := w.tickets
	for w.fsynced != ticket {
		w.fsyncDone.Wait()
	}
	w.fsynced++
	w.fsyncDone.Broadcast()
	for w.fsynced < started && w.failed == nil {
		w.fsyncDone.Wait()
	}
	return w.failed
}

// Seq returns the last assigned sequence number.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Sync flushes buffered records and fsyncs the last segment. Appends wait
// for the flush but not for the fsync, which holds syncMu exclusively.
func (w *WAL) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	f, err := w.flushLocked()
	w.mu.Unlock()
	if f == nil {
		return err
	}
	if err := syncFile(f); err != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.failed = fmt.Errorf("persist: fsync WAL: %w", err)
		return w.failed
	}
	return nil
}

// syncLocked is Sync for cut and Close, which hold syncMu and w.mu.
func (w *WAL) syncLocked() error {
	f, err := w.flushLocked()
	if f == nil {
		return err
	}
	if err := syncFile(f); err != nil {
		w.failed = fmt.Errorf("persist: fsync WAL: %w", err)
		return w.failed
	}
	return nil
}

// flushLocked writes the buffered records to the last segment and returns
// it for the fsync, or nil when no record awaits one; the caller holds
// w.mu. A failed flush or fsync fail-stops the WAL: the kernel may drop
// the pages it could not write, so a later fsync that succeeds would not
// make them durable.
func (w *WAL) flushLocked() (*os.File, error) {
	if w.closed {
		return nil, fmt.Errorf("persist: WAL is closed")
	}
	if w.failed != nil {
		return nil, w.failed
	}
	if !w.dirty {
		return nil, nil
	}
	if err := w.w.Flush(); err != nil {
		w.failed = fmt.Errorf("persist: flush WAL: %w", err)
		return nil, w.failed
	}
	w.dirty = false
	return w.f, nil
}

// syncFile fsyncs a WAL segment. A variable so tests can fail one fsync
// and hold another.
var syncFile = (*os.File).Sync

// flusher is the group-commit loop: under SyncBatch it syncs dirty batches
// every interval; under SyncAlways it has nothing to do but still exits
// cleanly on close.
func (w *WAL) flusher() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if w.policy == SyncBatch {
				_ = w.Sync() // a failure fail-stops the WAL: the next append, Sync, cut or Close reports it
			}
		}
	}
}

// cut syncs the last segment and, if it holds records, creates the next,
// named one past the current sequence, and switches appends to it. It
// returns that sequence. It is the only step of a snapshot under w.mu.
func (w *WAL) cut() (uint64, error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.syncLocked(); err != nil {
		return 0, err
	}
	if fi, err := w.f.Stat(); err != nil || fi.Size() == 0 {
		return w.seq, err
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(w.seq+1)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	// Appends to an entry that is not durable could be lost, and the old
	// segment may take no more, so an unsynced create fail-stops the WAL.
	if err := syncDir(w.dir); err != nil {
		f.Close()
		w.failed = err
		return 0, err
	}
	_ = w.f.Close() // synced above: no record depends on the close
	w.f = f
	w.w.Reset(f)
	return w.seq, nil
}

// Close syncs outstanding records, stops the flusher, and closes the file.
// Further appends fail.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return nil
	}
	err := w.syncLocked()
	w.closed = true
	cerr := w.f.Close()
	w.mu.Unlock()
	w.syncMu.Unlock() // the flusher's Sync may wait on it, and Close waits for the flusher
	close(w.stop)
	<-w.done
	if err != nil {
		return err
	}
	return cerr
}
