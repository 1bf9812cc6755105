package service

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// randomBatch draws k edits over n families, mixing inserts, deletes, and
// likely no-ops.
func randomBatch(r *rand.Rand, n, k int) []core.Edit {
	edits := make([]core.Edit, k)
	for i := range edits {
		u := r.IntN(n)
		v := r.IntN(n - 1)
		if v >= u {
			v++
		}
		op := core.EditInsert
		if r.IntN(10) < 4 {
			op = core.EditDelete
		}
		edits[i] = core.Edit{Op: op, U: u, V: v}
	}
	return edits
}

// answerKey condenses a community's externally observable schedule: window
// rows plus next-happy answers. Equal keys mean byte-identical responses.
func answerKey(t *testing.T, c *Community) string {
	t.Helper()
	rows, err := c.Window(1, 96)
	if err != nil {
		t.Fatal(err)
	}
	s := ""
	for _, r := range rows {
		s += fmt.Sprintf("%d:%v;", r.Holiday, r.Happy)
	}
	for v := 0; v < c.Families(); v++ {
		n, err := c.NextHappy(v, 5)
		if err != nil {
			t.Fatal(err)
		}
		s += fmt.Sprintf("n%d=%d;", v, n)
	}
	return s
}

// TestChurnBatchMatchesSingleOps is the serving-layer half of the
// differential acceptance test: the same edit stream applied via ChurnBatch
// and via one-at-a-time Marry/Divorce must produce byte-identical window and
// next-happy answers after every flush, identical per-edit outcomes, and —
// with journals attached — an identical record stream (so replaying a
// batch-written WAL reconstructs the same state one record at a time).
func TestChurnBatchMatchesSingleOps(t *testing.T) {
	regB, regS := New(Opts{}), New(Opts{})
	jB, jS := &memJournal{}, &memJournal{}
	regB.SetJournal(jB)
	regS.SetJournal(jS)
	const n = 28
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}}
	batched, err := regB.Create("c", n, edges, "")
	if err != nil {
		t.Fatal(err)
	}
	single, err := regS.Create("c", n, edges, "")
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewPCG(21, 5))
	for round := 0; round < 40; round++ {
		edits := randomBatch(r, n, 1+r.IntN(32))
		res := make([]core.EditResult, len(edits))
		if _, err := batched.ChurnBatch(edits, res); err != nil {
			t.Fatal(err)
		}
		for i, e := range edits {
			if e.Op == core.EditInsert {
				recolored, err := single.Marry(e.U, e.V)
				if err != nil {
					t.Fatal(err)
				}
				if res[i].Recolored != recolored {
					t.Fatalf("round %d edit %d: batch recolored=%v, single %v", round, i, res[i].Recolored, recolored)
				}
			} else {
				removed, recolored, err := single.Divorce(e.U, e.V)
				if err != nil {
					t.Fatal(err)
				}
				if res[i].Applied != removed || res[i].Recolored != recolored {
					t.Fatalf("round %d edit %d: batch %+v, single removed=%v recolored=%v", round, i, res[i], removed, recolored)
				}
			}
		}
		if kb, ks := answerKey(t, batched), answerKey(t, single); kb != ks {
			t.Fatalf("round %d: batch and single-op answers diverged", round)
		}
	}
	if !reflect.DeepEqual(jB.recs, jS.recs) {
		t.Fatalf("journal streams diverged:\n batch:  %d recs\n single: %d recs", len(jB.recs), len(jS.recs))
	}

	// The batch path's journal stream replays into the same answers.
	regR := New(Opts{})
	for i, rec := range jB.recs {
		if err := regR.Apply(uint64(i+1), rec); err != nil {
			t.Fatal(err)
		}
	}
	replayed, ok := regR.Get("c")
	if !ok {
		t.Fatal("replayed registry lost the community")
	}
	if answerKey(t, replayed) != answerKey(t, batched) {
		t.Fatal("replaying the batch-written journal produced different answers")
	}
}

// TestChurnBatchJournalsOnlyEffectiveEdits: no-op edits (including in-batch
// cancellations) never reach the journal.
func TestChurnBatchJournalsOnlyEffectiveEdits(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)
	c, err := reg.Create("c", 6, [][2]int{{0, 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	j.recs = nil
	res := make([]core.EditResult, 6)
	if _, err := c.ChurnBatch([]core.Edit{
		{Op: core.EditInsert, U: 0, V: 1}, // no-op: already married
		{Op: core.EditDelete, U: 2, V: 3}, // no-op: strangers
		{Op: core.EditInsert, U: 2, V: 3}, // effective
		{Op: core.EditDelete, U: 2, V: 3}, // effective: cancels in-batch
		{Op: core.EditInsert, U: 4, V: 5}, // effective
		{Op: core.EditInsert, U: 4, V: 5}, // no-op: duplicate of in-batch insert
	}, res); err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpMarry, ID: "c", U: 2, V: 3},
		{Op: OpDivorce, ID: "c", U: 2, V: 3},
		{Op: OpMarry, ID: "c", U: 4, V: 5},
	}
	if !reflect.DeepEqual(j.recs, want) {
		t.Fatalf("journal saw %+v, want %+v", j.recs, want)
	}
	wantApplied := []bool{false, false, true, true, true, false}
	for i, w := range wantApplied {
		if res[i].Applied != w {
			t.Errorf("edit %d applied=%v, want %v", i, res[i].Applied, w)
		}
	}
}

// TestChurnBatchWriteAhead: a journal failure aborts the whole batch before
// anything is applied.
func TestChurnBatchWriteAhead(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)
	c, err := reg.Create("c", 4, [][2]int{{0, 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	j.fail = errors.New("disk full")
	if _, err := c.ChurnBatch([]core.Edit{
		{Op: core.EditInsert, U: 1, V: 2},
		{Op: core.EditDelete, U: 0, V: 1},
	}, nil); err == nil {
		t.Fatal("batch acked despite journal failure")
	}
	if got := c.Stats(); got != before {
		t.Fatalf("journal failure mutated state: %+v -> %+v", before, got)
	}
	// A batch of pure no-ops has nothing to journal and succeeds even while
	// the journal is failing.
	if _, err := c.ChurnBatch([]core.Edit{{Op: core.EditDelete, U: 1, V: 3}}, nil); err != nil {
		t.Fatalf("no-op batch: %v", err)
	}
}

// TestChurnBatchValidation: one invalid edit fails the batch with nothing
// applied or journaled.
func TestChurnBatchValidation(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)
	c, err := reg.Create("c", 4, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	n := len(j.recs)
	bad := [][]core.Edit{
		{{Op: core.EditInsert, U: 0, V: 1}, {Op: core.EditInsert, U: 1, V: 9}},
		{{Op: core.EditInsert, U: 0, V: 1}, {Op: core.EditInsert, U: 2, V: 2}},
		{{Op: core.EditInsert, U: 0, V: 1}, {Op: core.EditOp(7), U: 0, V: 2}},
	}
	for i, edits := range bad {
		if _, err := c.ChurnBatch(edits, nil); err == nil {
			t.Fatalf("bad batch %d: expected error", i)
		}
	}
	if len(j.recs) != n {
		t.Fatal("invalid batch reached the journal")
	}
	if c.Stats().Marriages != 0 {
		t.Fatal("invalid batch mutated state")
	}
	if _, err := c.ChurnBatch([]core.Edit{{Op: core.EditInsert, U: 0, V: 1}}, make([]core.EditResult, 2)); err == nil {
		t.Fatal("mismatched result-slot count must error")
	}
}

// batchingJournal counts LogBatch calls to prove the batch fast path is
// taken when offered.
type batchingJournal struct {
	memJournal
	batches int
}

func (j *batchingJournal) LogBatch(recs []Record) (uint64, error) {
	if j.fail != nil {
		return 0, j.fail
	}
	j.batches++
	for _, rec := range recs {
		j.seq++
		j.recs = append(j.recs, rec)
	}
	return j.seq, nil
}

// TestChurnBatchUsesBatchJournal: a journal implementing BatchJournal gets
// one LogBatch call per flush, not K Log calls.
func TestChurnBatchUsesBatchJournal(t *testing.T) {
	reg := New(Opts{})
	j := &batchingJournal{}
	reg.SetJournal(j)
	c, err := reg.Create("c", 8, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ChurnBatch([]core.Edit{
		{Op: core.EditInsert, U: 0, V: 1},
		{Op: core.EditInsert, U: 2, V: 3},
		{Op: core.EditInsert, U: 4, V: 5},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if j.batches != 1 {
		t.Fatalf("LogBatch called %d times, want 1", j.batches)
	}
	if len(j.recs) != 4 { // create + 3 marries
		t.Fatalf("journal has %d records, want 4", len(j.recs))
	}
	if c.journalSeq() != j.seq {
		t.Fatalf("community seq %d, journal seq %d", c.journalSeq(), j.seq)
	}
}

// TestCoalescerBatchesConcurrentChurn: concurrent single ops coalesce into
// far fewer flushes, every op is answered correctly, and the community stays
// consistent.
func TestCoalescerBatchesConcurrentChurn(t *testing.T) {
	reg := New(Opts{})
	j := &batchingJournal{}
	reg.SetJournal(j)
	const n = 128
	c, err := reg.Create("c", n, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	// A long time bound makes the size trigger do the work: 256 ops on one
	// community fill exactly 16 batches of 16, so the flush count is a
	// deterministic amortization proof rather than a scheduling race.
	co := NewCoalescer(16, 250*time.Millisecond)
	defer co.Close()

	const ops = 256
	var wg sync.WaitGroup
	errs := make([]error, ops)
	applied := make([]bool, ops)
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct edges: op i marries (2i, 2i+1) mod n... ensure u != v.
			u := (2 * i) % n
			v := (2*i + 1) % n
			res, err := co.Churn(c, core.Edit{Op: core.EditInsert, U: u, V: v})
			errs[i] = err
			applied[i] = res.Applied
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// ops span each distinct edge exactly ops/ (n/2)=... every (u,v) pair
	// repeats ops/(n/2) = 4 times; exactly n/2 ops were first.
	firsts := 0
	for _, a := range applied {
		if a {
			firsts++
		}
	}
	if firsts != n/2 {
		t.Fatalf("%d ops reported Applied, want %d (one per distinct edge)", firsts, n/2)
	}
	if got := c.Stats().Marriages; got != n/2 {
		t.Fatalf("community has %d marriages, want %d", got, n/2)
	}
	enq, flushes := co.Stats()
	if enq != ops {
		t.Fatalf("coalescer enqueued %d, want %d", enq, ops)
	}
	if flushes > ops/4 {
		t.Fatalf("coalescer flushed %d times for %d ops: batching is not amortizing", flushes, ops)
	}
	// The journal saw only effective records, batched.
	marries := 0
	for _, rec := range j.recs {
		if rec.Op == OpMarry {
			marries++
		}
	}
	if marries != n/2 {
		t.Fatalf("journal has %d marry records, want %d", marries, n/2)
	}
}

// TestCoalescerTimerFlush: a lone op below the size trigger still completes
// within the time bound.
func TestCoalescerTimerFlush(t *testing.T) {
	reg := New(Opts{})
	c, err := reg.Create("c", 4, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoalescer(1024, 2*time.Millisecond)
	defer co.Close()
	start := time.Now()
	res, err := co.Churn(c, core.Edit{Op: core.EditInsert, U: 0, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatal("op not applied")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timer flush took %v", d)
	}
}

// TestCoalescerCloseFlushesPending: Close drains open batches, and later
// ops fall back to direct application.
func TestCoalescerCloseFlushesPending(t *testing.T) {
	reg := New(Opts{})
	c, err := reg.Create("c", 4, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoalescer(1024, time.Hour)
	done := make(chan error, 1)
	go func() {
		_, err := co.Churn(c, core.Edit{Op: core.EditInsert, U: 0, V: 1})
		done <- err
	}()
	// Wait for the op to be enqueued before closing.
	for i := 0; ; i++ {
		if enq, _ := co.Stats(); enq == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("op never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	co.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.Stats().Marriages != 1 {
		t.Fatal("pending op lost by Close")
	}
	// Post-close ops still work (direct path).
	if res, err := co.Churn(c, core.Edit{Op: core.EditInsert, U: 2, V: 3}); err != nil || !res.Applied {
		t.Fatalf("post-close churn: res=%+v err=%v", res, err)
	}
	// Invalid ops fail fast without joining a batch.
	if _, err := co.Churn(c, core.Edit{Op: core.EditInsert, U: 0, V: 99}); err == nil {
		t.Fatal("invalid edit must fail")
	}
}
