package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// DefaultChurnFlushInterval is the coalescer's default time bound: a lone
// churn op waits at most this long for company before its batch flushes.
const DefaultChurnFlushInterval = 2 * time.Millisecond

// ChurnBatch applies K marriages and divorces as one write operation: one
// write-lock acquisition and one write-ahead journal append
// (group-committed when the journal implements BatchJournal), against up to
// K of each under one-at-a-time churn. Each edit then goes through
// applyLocked exactly as a single op or a replayed record does, so batch
// application is byte-identical to sequential application by construction,
// which is what lets WAL replay apply the same records one at a time.
// Readers keep serving the pre-flush frozen schedule for the whole batch:
// in-flight queries hold immutable snapshots, and however many edits drop
// the cache under this one lock, the next read refreezes once.
//
// Every edit is validated before anything is journaled or applied, so an
// invalid batch is all-or-nothing. Edits that would not change the edge set
// (re-marrying a married couple, divorcing strangers) are applied as no-ops
// and — like their single-op counterparts — excluded from the journal, so
// replay stays minimal.
//
// out, when non-nil, must have one slot per edit and receives what each
// edit did. The returned count is the batch's repairs: recolorings for
// classic, relayerings for poly.
func (c *Community) ChurnBatch(edits []core.Edit, out []core.EditResult) (recolorings int, err error) {
	if out != nil && len(out) != len(edits) {
		return 0, fmt.Errorf("service: community %q: batch has %d edits but %d result slots", c.id, len(edits), len(out))
	}
	if len(edits) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.fencedErrLocked(); err != nil {
		return 0, err
	}
	n := c.be.N()
	for i, e := range edits {
		if e.Op != core.EditInsert && e.Op != core.EditDelete {
			return 0, fmt.Errorf("service: community %q: batch edit %d has unknown op %d", c.id, i, e.Op)
		}
		if err := validEdge(n, e.U, e.V); err != nil {
			return 0, fmt.Errorf("service: community %q: batch edit %d: %w", c.id, i, err)
		}
	}
	// Write-ahead: journal before applying. Which edits are effective (will
	// change the edge set) is predicted by replaying the batch against
	// current adjacency plus an in-batch overlay, so only effective edits
	// are logged, without applying first.
	if c.reg != nil && c.reg.getJournal() != nil {
		if err := c.logBatchLocked(c.effectiveRecords(edits)); err != nil {
			return 0, err
		}
	}
	before := c.be.Repairs()
	for i, e := range edits {
		res, err := c.applyLocked(e)
		if err != nil {
			// Unreachable: the batch was validated above. Surface rather than
			// swallow if the backend's rules ever drift.
			return int(c.be.Repairs() - before), err
		}
		if out != nil {
			out[i] = res
		}
	}
	return int(c.be.Repairs() - before), nil
}

// effectiveRecords returns journal records for exactly the edits that will
// change the edge set when the (already validated) batch is applied in
// order. The overlay map carries in-batch edge state so e.g. a divorce
// following an in-batch marriage of the same couple is correctly effective.
// Caller holds c.mu.
func (c *Community) effectiveRecords(edits []core.Edit) []Record {
	recs := make([]Record, 0, len(edits))
	overlay := make(map[[2]int]bool, len(edits))
	for _, e := range edits {
		k := [2]int{min(e.U, e.V), max(e.U, e.V)}
		present, seen := overlay[k]
		if !seen {
			present = c.be.HasEdge(e.U, e.V)
		}
		switch {
		case e.Op == core.EditInsert && !present:
			recs = append(recs, c.record(e))
			overlay[k] = true
		case e.Op == core.EditDelete && present:
			recs = append(recs, c.record(e))
			overlay[k] = false
		default:
			overlay[k] = present
		}
	}
	return recs
}

// logBatchLocked write-ahead logs a flush's effective records, in one append
// when the journal supports it, and advances the community's sequence to the
// last record's. Caller holds c.mu.
func (c *Community) logBatchLocked(recs []Record) error {
	if len(recs) == 0 || c.reg == nil {
		return nil
	}
	j := c.reg.getJournal()
	if j == nil {
		return nil
	}
	if bj, ok := j.(BatchJournal); ok {
		seq, err := bj.LogBatch(recs)
		if err != nil {
			return fmt.Errorf("service: community %q: journal: %w", c.id, err)
		}
		c.seq = seq
		return nil
	}
	for _, rec := range recs {
		seq, err := j.Log(rec)
		if err != nil {
			return fmt.Errorf("service: community %q: journal: %w", c.id, err)
		}
		c.seq = seq
	}
	return nil
}

// Coalescer turns independent single churn ops into per-community
// ChurnBatch flushes: ops enqueue under a registry-wide mutex, and a batch
// flushes when it reaches maxBatch ops or when its oldest op has waited
// flushEvery. Callers block until their op's flush completes — the flush
// journals before anyone is acknowledged, so the write-ahead durability
// contract is exactly that of unbatched churn, with the fsync cost shared
// K ways.
//
// The zero value is not usable; construct with NewCoalescer. Safe for
// concurrent use.
type Coalescer struct {
	maxBatch   int
	flushEvery time.Duration

	mu      sync.Mutex
	pending map[*Community]*pendingChurn
	closed  bool

	enqueued atomic.Int64 // ops accepted into batches (or run directly)
	flushes  atomic.Int64 // ChurnBatch calls issued, plus direct single ops
}

// pendingChurn is one community's open batch.
type pendingChurn struct {
	c     *Community
	edits []core.Edit
	done  []chan churnOutcome
	timer *time.Timer
}

type churnOutcome struct {
	res core.EditResult
	err error
}

// NewCoalescer returns a coalescer flushing at maxBatch ops or flushEvery,
// whichever comes first. maxBatch < 2 degenerates to direct single ops (no
// queuing, no timer); flushEvery ≤ 0 uses DefaultChurnFlushInterval.
func NewCoalescer(maxBatch int, flushEvery time.Duration) *Coalescer {
	if flushEvery <= 0 {
		flushEvery = DefaultChurnFlushInterval
	}
	return &Coalescer{
		maxBatch:   maxBatch,
		flushEvery: flushEvery,
		pending:    make(map[*Community]*pendingChurn),
	}
}

// Churn enqueues one edit for c and blocks until the batch containing it has
// been journaled and applied, returning what the edit did. Edits that are
// invalid against the current family count fail fast without joining a
// batch. After Close, ops take the single-op write path of Marry and
// Divorce.
func (co *Coalescer) Churn(c *Community, e core.Edit) (core.EditResult, error) {
	if e.Op != core.EditInsert && e.Op != core.EditDelete {
		return core.EditResult{}, fmt.Errorf("service: community %q: unknown churn op %d", c.ID(), e.Op)
	}
	// Families only ever grow, so an edit valid here is still valid at
	// flush time: one caller's bad op can never fail a batch of valid ones.
	if err := validEdge(c.Families(), e.U, e.V); err != nil {
		return core.EditResult{}, fmt.Errorf("service: community %q: %w", c.ID(), err)
	}
	co.enqueued.Add(1)
	co.mu.Lock()
	if co.closed || co.maxBatch < 2 {
		co.mu.Unlock()
		co.flushes.Add(1)
		return c.edit(e)
	}
	b := co.pending[c]
	if b == nil {
		b = &pendingChurn{c: c}
		co.pending[c] = b
		// The timer captures the batch pointer: if the batch flushes by
		// size first, the fired timer finds pending[c] != b and walks away.
		b.timer = time.AfterFunc(co.flushEvery, func() { co.flushTimed(c, b) })
	}
	b.edits = append(b.edits, e)
	ch := make(chan churnOutcome, 1)
	b.done = append(b.done, ch)
	var full *pendingChurn
	if len(b.edits) >= co.maxBatch {
		delete(co.pending, c)
		b.timer.Stop()
		full = b
	}
	co.mu.Unlock()
	if full != nil {
		co.flush(full)
	}
	out := <-ch
	return out.res, out.err
}

// Stats reports ops accepted and flushes issued — enqueued/flushes is the
// realized amortization factor.
func (co *Coalescer) Stats() (enqueued, flushes int64) {
	return co.enqueued.Load(), co.flushes.Load()
}

// Close flushes every open batch and switches the coalescer to direct
// (unbatched) operation. Call after the HTTP server has stopped accepting
// requests and before closing the journal, so no acknowledged op is lost.
func (co *Coalescer) Close() {
	co.mu.Lock()
	co.closed = true
	var open []*pendingChurn
	for c, b := range co.pending {
		b.timer.Stop()
		delete(co.pending, c)
		open = append(open, b)
	}
	co.mu.Unlock()
	for _, b := range open {
		co.flush(b)
	}
}

// flushTimed is the timer path: flush b unless a size-trigger got there
// first.
func (co *Coalescer) flushTimed(c *Community, b *pendingChurn) {
	co.mu.Lock()
	if co.pending[c] != b {
		co.mu.Unlock()
		return
	}
	delete(co.pending, c)
	co.mu.Unlock()
	co.flush(b)
}

// flush runs one ChurnBatch and delivers per-edit outcomes to the waiters.
func (co *Coalescer) flush(b *pendingChurn) {
	co.flushes.Add(1)
	res := make([]core.EditResult, len(b.edits))
	_, err := b.c.ChurnBatch(b.edits, res)
	for i, ch := range b.done {
		ch <- churnOutcome{res: res[i], err: err}
	}
}
