package service

import (
	"fmt"

	"repro/internal/core"
)

// ChurnBatch applies K marriages and divorces as one write operation: one
// write-lock acquisition and one write-ahead journal append
// (group-committed when the journal implements BatchJournal), against up to
// K of each under one-at-a-time churn. The edits then go through
// applyLocked, in order, exactly as single ops or replayed records do, so
// batch application is byte-identical to sequential application by
// construction, which is what lets WAL replay apply the same records one at
// a time. Readers keep serving the pre-flush frozen schedule for the whole
// batch: each edit that changed the schedule patches it, and applyLocked
// publishes the result once, after the last edit, so the next read finds
// the flushed schedule without freezing it.
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
	if j := c.reg.getJournal(); j != nil {
		if err := c.logLocked(j, c.effectiveRecords(edits)...); err != nil {
			return 0, err
		}
	}
	before := c.be.Repairs()
	// An error is unreachable, since the batch was validated above; surface
	// it rather than swallow it if the backend's rules ever drift.
	err = c.applyLocked(out, edits...)
	return int(c.be.Repairs() - before), err
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
