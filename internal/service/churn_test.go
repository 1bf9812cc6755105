package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/poly"
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
// rows plus next-happy answers for every schedule entity (families for
// classic, edge slots for poly). Equal keys mean byte-identical responses.
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
	sched, err := c.frozen()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < sched.Nodes(); v++ {
		n, err := c.NextHappy(v, 5)
		if err != nil {
			t.Fatal(err)
		}
		s += fmt.Sprintf("n%d=%d;", v, n)
	}
	return s
}

// checkPublished holds the schedule c publishes — frozen in full by a read
// when none is published, then patched by every edit — to a fresh freeze
// of its backend: Window, WindowBits, NextHappy and HappySet must answer
// byte for byte alike.
func checkPublished(t *testing.T, c *Community, when string) {
	t.Helper()
	got, err := c.frozen()
	if err != nil {
		t.Fatal(err)
	}
	c.mu.RLock()
	want, err := c.be.FrozenSchedule()
	c.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := scheduleAnswers(got), scheduleAnswers(want); g != w {
		t.Fatalf("%s: the published schedule answers\n %s\nbut a fresh freeze\n %s", when, g, w)
	}
}

// scheduleAnswers renders what s answers: Window and WindowBits over
// [1, 96], HappySet on a few holidays and NextHappy of every entity.
func scheduleAnswers(s *core.ClassSchedule) string {
	b := strconv.AppendInt(nil, int64(s.Nodes()), 10)
	s.Window(1, 96, func(t int64, happy []int) {
		b = append(strconv.AppendInt(append(b, ';'), t, 10), ':')
		for _, v := range happy {
			b = append(strconv.AppendInt(b, int64(v), 10), ',')
		}
	})
	s.WindowBits(1, 96, func(t int64, row graph.Bitset) {
		b = append(strconv.AppendInt(append(b, ';'), t, 10), 'b')
		for _, w := range row {
			b = append(strconv.AppendUint(b, w, 16), ',')
		}
	})
	for _, t := range []int64{0, 1, 2, 3, 64, 1000} {
		b = append(strconv.AppendInt(append(b, ";h"...), t, 10), '=')
		for _, v := range s.HappySet(t) {
			b = append(strconv.AppendInt(b, int64(v), 10), ',')
		}
	}
	for v := 0; v < s.Nodes(); v++ {
		b = strconv.AppendInt(append(b, ";n"...), s.NextHappy(v, 1), 10)
		b = strconv.AppendInt(append(b, ','), s.NextHappy(v, 500), 10)
	}
	return string(b)
}

// editPathCodes are the kinds and codes the edit-path differential covers:
// all four prefix codes of the classic kind and both poly schedulers.
var editPathCodes = []struct{ kind, code string }{
	{KindClassic, "unary"}, {KindClassic, "gamma"}, {KindClassic, "delta"}, {KindClassic, "omega"},
	{KindPoly, poly.CodeLayering}, {KindPoly, poly.CodeBucketed},
}

// editPathSeeds is FuzzEditPaths' seed corpus: every code of editPathCodes,
// and each poly scheduler with default and with explicit demands.
var editPathSeeds = []struct {
	code    uint8
	seed    uint64
	ops     uint16
	demands bool
}{
	{0, 1, 200, false},
	{1, 2, 300, false},
	{2, 3, 300, false},
	{3, 21, 400, false},
	{4, 5, 300, false},
	{4, 6, 300, true},
	{5, 7, 300, false},
	{5, 8, 300, true},
}

// checkEditPaths is the differential over every write path. One seeded edit
// stream of the chosen kind and code runs through single ops
// (MarryDemand/Divorce), through ChurnBatch at random batch sizes with an
// Export→Restore round trip mid-stream, and through replay of the batch
// path's journal via Owner.Apply; now and then both communities gain a
// family (AddFamily) between batches. All of them must agree on every
// per-edit outcome, on the answers after every batch, on the journals, and
// on the final Export: coloring or poly state, version and recolorings
// included. After every single op, every batch, every AddFamily and every
// replayed record, the community's published schedule must answer like a
// fresh freeze (checkPublished).
func checkEditPaths(t *testing.T, code uint8, seed uint64, ops uint16, demands bool) {
	kc := editPathCodes[int(code)%len(editPathCodes)]
	demands = demands && kc.kind == KindPoly
	r := rand.New(rand.NewPCG(seed, 0xed17))
	n := 6 + r.IntN(20)
	spec := CreateSpec{ID: "c", Families: n, Kind: kc.kind, Code: kc.code}
	for u := 0; u+1 < n; u += 3 {
		spec.Edges = append(spec.Edges, [2]int{u, u + 1})
		if demands {
			spec.Demands = append(spec.Demands, int64(r.IntN(3))*16) // 0 takes the default
		}
	}
	if demands {
		spec.DefaultDemand = 32
	}
	create := func(j Journal) *Community {
		c, err := New(Opts{Journal: j}).CreateSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	jS, jB := &memJournal{}, &batchingJournal{}
	single, batched := create(jS), create(jB)
	checkPublished(t, single, "create")
	checkPublished(t, batched, "create")
	added := 0

	restoreAt := r.IntN(int(ops)/2 + 1)
	for done, round := 0, 0; done < int(ops); round++ {
		if r.IntN(8) == 0 {
			fb, err := batched.AddFamily()
			if err != nil {
				t.Fatal(err)
			}
			fs, err := single.AddFamily()
			if err != nil {
				t.Fatal(err)
			}
			if fb != n || fs != n {
				t.Fatalf("round %d: AddFamily gave families %d and %d, want %d", round, fb, fs, n)
			}
			n, added = n+1, added+1
			checkPublished(t, batched, fmt.Sprintf("round %d: batched AddFamily", round))
			checkPublished(t, single, fmt.Sprintf("round %d: single AddFamily", round))
		}
		edits := randomBatch(r, n, 1+r.IntN(24))
		for i := range edits {
			if demands && edits[i].Op == core.EditInsert && r.IntN(2) == 0 {
				edits[i].Demand = int64(2) << r.IntN(7)
			}
		}
		if done <= restoreAt && restoreAt < done+len(edits) {
			c, err := New(Opts{Journal: jB}).Restore(batched.Export())
			if err != nil {
				t.Fatalf("round %d: restore: %v", round, err)
			}
			batched = c
		}
		done += len(edits)
		res := make([]core.EditResult, len(edits))
		if _, err := batched.ChurnBatch(edits, res); err != nil {
			t.Fatal(err)
		}
		checkPublished(t, batched, fmt.Sprintf("round %d: batch", round))
		for i, e := range edits {
			var want core.EditResult
			var err error
			if e.Op == core.EditInsert {
				want.Applied = !single.be.HasEdge(e.U, e.V)
				want.Recolored, err = single.MarryDemand(e.U, e.V, e.Demand)
			} else {
				want.Applied, want.Recolored, err = single.Divorce(e.U, e.V)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res[i] != want {
				t.Fatalf("round %d edit %d (%+v): batch %+v, single %+v", round, i, e, res[i], want)
			}
			checkPublished(t, single, fmt.Sprintf("round %d edit %d (%+v)", round, i, e))
		}
		if kb, ks := answerKey(t, batched), answerKey(t, single); kb != ks {
			t.Fatalf("round %d: batch and single-op answers diverged", round)
		}
	}
	if !reflect.DeepEqual(jB.recs, jS.recs) {
		t.Fatalf("journal streams diverged:\n batch:  %d recs\n single: %d recs", len(jB.recs), len(jS.recs))
	}
	// The single-op community was read after every edit, so it froze in
	// full only on its first read, after each AddFamily and after each
	// poly relayering; every other edit patched.
	st := single.Stats()
	wantMisses := int64(1 + added)
	if kc.kind == KindPoly {
		wantMisses += st.Recolorings
	}
	if st.CacheMisses != wantMisses {
		t.Fatalf("single ops froze %d schedules, want %d (%d families added, %d repairs)", st.CacheMisses, wantMisses, added, st.Recolorings)
	}

	replay := New(Opts{})
	for i, rec := range jB.recs {
		if err := replay.Apply(uint64(i+1), rec); err != nil {
			t.Fatal(err)
		}
		if c, ok := replay.Get("c"); ok {
			checkPublished(t, c, fmt.Sprintf("replayed record %d (%s)", i+1, rec.Op))
		}
	}
	replayed, ok := replay.Get("c")
	if !ok {
		t.Fatal("replayed owner lost the community")
	}
	want, err := json.Marshal(single.Export())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Community{"batched": batched, "replayed": replayed} {
		got, err := json.Marshal(c.Export())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s export differs from single ops:\n got  %s\n want %s", name, got, want)
		}
		if answerKey(t, c) != answerKey(t, single) {
			t.Fatalf("%s answers differ from single ops", name)
		}
	}
}

// FuzzEditPaths drives checkEditPaths with fuzzed kinds, codes, streams and
// demand mixes.
func FuzzEditPaths(f *testing.F) {
	for _, s := range editPathSeeds {
		f.Add(s.code, s.seed, s.ops, s.demands)
	}
	f.Fuzz(func(t *testing.T, code uint8, seed uint64, ops uint16, demands bool) {
		checkEditPaths(t, code, seed, ops%512, demands)
	})
}

// TestChurnBatchMatchesSingleOps runs FuzzEditPaths' seed corpus inline, so
// `go test` (without -fuzz) holds every write path to the single-op one for
// all four prefix codes and both poly schedulers.
func TestChurnBatchMatchesSingleOps(t *testing.T) {
	for _, s := range editPathSeeds {
		kc := editPathCodes[s.code]
		t.Run(fmt.Sprintf("%s/%s/demands=%v", kc.kind, kc.code, s.demands), func(t *testing.T) {
			checkEditPaths(t, s.code, s.seed, s.ops, s.demands)
		})
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
		{{Op: core.EditInsert, U: 0, V: 1}, {Op: core.EditDelete, U: -1, V: 2}},
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
// one LogBatch call per flush, not K Log calls, and single ops reach it
// through the same append.
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
	if c.Seq() != j.seq {
		t.Fatalf("community seq %d, journal seq %d", c.Seq(), j.seq)
	}
	if _, _, err := c.Divorce(0, 1); err != nil {
		t.Fatal(err)
	}
	if j.batches != 2 || c.Seq() != 5 {
		t.Fatalf("after a single op: %d LogBatch calls, community seq %d; want 2, 5", j.batches, c.Seq())
	}
}

// failingAfter is a plain Journal that accepts limit records, then fails.
type failingAfter struct {
	memJournal
	limit int
}

func (j *failingAfter) Log(rec Record) (uint64, error) {
	if len(j.recs) == j.limit {
		return 0, errors.New("disk full")
	}
	return j.memJournal.Log(rec)
}

// TestChurnBatchRecordByRecordFailure: a journal without LogBatch is fed a
// flush record by record, and when it fails partway the community's
// sequence stands at the last record it accepted, never below it.
func TestChurnBatchRecordByRecordFailure(t *testing.T) {
	reg := New(Opts{})
	j := &failingAfter{limit: 3} // the create and two of the batch's records
	reg.SetJournal(j)
	c, err := reg.Create("c", 8, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ChurnBatch([]core.Edit{
		{Op: core.EditInsert, U: 0, V: 1},
		{Op: core.EditInsert, U: 2, V: 3},
		{Op: core.EditInsert, U: 4, V: 5},
	}, nil); err == nil {
		t.Fatal("batch acked despite a journal failure")
	}
	if c.Seq() != 3 {
		t.Fatalf("community seq %d, want 3: the last record the journal accepted", c.Seq())
	}
}

// BenchmarkPolyEdit applies marriages and divorces to the community
// holidaybench's poly-mixed workload churns hardest, poly-gnp-m
// (gnp:n=512,p=0.02 at demand 1024), with its schedule published, as reads
// keep it, so every edit patches it. Churn runs over a fixed pool of
// ⌈M/0.6⌉ couples, the M initial marriages and random others, and marries
// with probability 0.6, so the edge count stays near M. A draw that would
// not change the edge set is skipped before the call, so each iteration is
// one applied edit and ns/op, B/op and allocs/op are per applied edit.
func BenchmarkPolyEdit(b *testing.B) {
	g, err := graph.ParseSpec("gnp:n=512,p=0.02", 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Opts{}).CreateSpec(CreateSpec{ID: "poly-gnp-m", Families: g.N(), Edges: g.EdgePairs(),
		Kind: KindPoly, DefaultDemand: 1024})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	pool := g.EdgePairs()
	married := make([]bool, (5*len(pool)+2)/3) // ⌈M/0.6⌉
	inPool := make(map[[2]int]bool, len(married))
	for k, e := range pool {
		married[k], inPool[e] = true, true
	}
	for len(pool) < len(married) {
		u, v := r.IntN(g.N()), r.IntN(g.N())
		if e := [2]int{min(u, v), max(u, v)}; u != v && !inPool[e] {
			pool, inPool[e] = append(pool, e), true
		}
	}
	if _, err := c.Schedule(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, marry := r.IntN(len(pool)), r.Float64() < 0.6
		for married[k] == marry {
			k, marry = r.IntN(len(pool)), r.Float64() < 0.6
		}
		u, v := pool[k][0], pool[k][1]
		var relayered bool
		if marry {
			relayered, err = c.Marry(u, v)
		} else {
			_, relayered, err = c.Divorce(u, v)
		}
		if err != nil {
			b.Fatal(err)
		}
		married[k] = marry
		if relayered { // the schedule was dropped: publish a fresh one
			b.StopTimer()
			if _, err := c.Schedule(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}
