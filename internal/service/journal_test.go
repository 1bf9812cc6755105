package service

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// memJournal records every logged record in memory, optionally failing.
type memJournal struct {
	recs []Record
	seq  uint64
	fail error
}

func (j *memJournal) Log(rec Record) (uint64, error) {
	if j.fail != nil {
		return 0, j.fail
	}
	j.seq++
	j.recs = append(j.recs, rec)
	return j.seq, nil
}

// TestJournalReceivesEveryMutation: each of the five mutation kinds logs
// exactly one record, with the fields replay needs.
func TestJournalReceivesEveryMutation(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)

	c, err := reg.Create("c", 4, [][2]int{{0, 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddFamily(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Marry(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Divorce(0, 1); err != nil {
		t.Fatal(err)
	}
	if ok, err := reg.Delete("c"); !ok || err != nil {
		t.Fatal("delete failed")
	}

	want := []Record{
		{Op: OpCreate, ID: "c", N: 4, Edges: [][2]int{{0, 1}}, Code: "omega"},
		{Op: OpAddFamily, ID: "c"},
		{Op: OpMarry, ID: "c", U: 1, V: 2},
		{Op: OpDivorce, ID: "c", U: 0, V: 1},
		{Op: OpDelete, ID: "c"},
	}
	if !reflect.DeepEqual(j.recs, want) {
		t.Fatalf("journal saw:\n %+v\nwant:\n %+v", j.recs, want)
	}
}

// TestJournalFailureIsWriteAhead: when the journal rejects a record the
// mutation must not apply — an op the client saw fail cannot silently
// change the schedule.
func TestJournalFailureIsWriteAhead(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)
	// The divorce below must target a real marriage: no-op churn (divorcing
	// strangers, re-marrying spouses) never touches the journal at all.
	c, err := reg.Create("c", 4, [][2]int{{2, 3}}, "")
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()

	j.fail = errors.New("disk full")
	if _, err := c.Marry(0, 1); err == nil {
		t.Fatal("Marry acked despite journal failure")
	}
	if _, err := c.AddFamily(); err == nil {
		t.Fatal("AddFamily acked despite journal failure")
	}
	if _, _, err := c.Divorce(2, 3); err == nil {
		t.Fatal("Divorce acked despite journal failure")
	}
	// No-op churn succeeds without consulting the (failing) journal.
	if removed, _, err := c.Divorce(0, 1); removed || err != nil {
		t.Fatalf("no-op divorce: removed=%v err=%v, want false,nil", removed, err)
	}
	if recolored, err := c.Marry(2, 3); recolored || err != nil {
		t.Fatalf("no-op marry: recolored=%v err=%v, want false,nil", recolored, err)
	}
	if ok, err := reg.Delete("c"); ok || err == nil {
		t.Fatal("Delete acked despite journal failure")
	}
	if _, err := reg.Create("d", 2, nil, ""); err == nil {
		t.Fatal("Create acked despite journal failure")
	}
	if got := c.Stats(); got != before {
		t.Fatalf("journal failure mutated state: %+v -> %+v", before, got)
	}
	if _, ok := reg.Get("d"); ok {
		t.Fatal("failed create registered the community anyway")
	}

	// Validation errors must not reach the journal at all.
	j.fail = nil
	n := len(j.recs)
	if _, err := c.Marry(0, 99); err == nil {
		t.Fatal("want validation error")
	}
	if len(j.recs) != n {
		t.Fatal("invalid op was journaled")
	}
}

// TestEditWithoutJournalAllocatesNothing: with no journal attached, a
// single-op marry plus divorce allocates nothing for either kind; the
// record a journal would take is never built.
func TestEditWithoutJournalAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	reg := New(Opts{})
	classic, err := reg.Create("classic", 8, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	poly, err := reg.CreateSpec(CreateSpec{ID: "poly", Kind: KindPoly, Families: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Community{classic, poly} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.Marry(0, 1); err != nil {
				t.Fatal(err)
			}
			if removed, _, err := c.Divorce(0, 1); !removed || err != nil {
				t.Fatalf("divorce: removed=%v err=%v", removed, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: marry plus divorce allocates %v times, want 0", c.ID(), allocs)
		}
	}
}

// TestExportRestoreRoundTrip: a restored community answers identically and
// keeps the exported version, recolorings, and sequence.
func TestExportRestoreRoundTrip(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)
	c, err := reg.Create("c", 12, ringEdges(12), "gamma")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := c.Marry(i, (i+5)%12); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Export()
	if st.Seq == 0 {
		t.Fatal("export lost the journal sequence")
	}

	reg2 := New(Opts{})
	c2, err := reg2.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := c.Stats(), c2.Stats()
	s1.CacheHits, s1.CacheMisses, s2.CacheHits, s2.CacheMisses = 0, 0, 0, 0
	if s1 != s2 {
		t.Fatalf("restored stats %+v, want %+v", s2, s1)
	}
	rows1, err := c.Window(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := c2.Window(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatal("restored community's window diverged")
	}
	for v := 0; v < 12; v++ {
		n1, err1 := c.NextHappy(v, 1)
		n2, err2 := c2.NextHappy(v, 1)
		if err1 != nil || err2 != nil || n1 != n2 {
			t.Fatalf("NextHappy(%d) diverged: %d,%v vs %d,%v", v, n1, err1, n2, err2)
		}
	}
}

// TestRestoreRejectsImproperColoring: a snapshot whose coloring conflicts
// with its edges must be refused — serving an improper coloring would break
// the independence guarantee silently.
func TestRestoreRejectsImproperColoring(t *testing.T) {
	st := CommunityState{
		ID:       "bad",
		Families: 2,
		Edges:    [][2]int{{0, 1}},
		Coloring: []int{1, 1}, // monochromatic edge
	}
	if _, err := New(Opts{}).Restore(st); err == nil {
		t.Fatal("restore accepted an improper coloring")
	}
}

// TestCreateAndRestoreRejectRepeatedEdge: a classic create or a restore
// whose edge list names one edge twice, in either orientation, fails naming
// the repeat, as a poly create does; the create journals and registers
// nothing.
func TestCreateAndRestoreRejectRepeatedEdge(t *testing.T) {
	reg := New(Opts{})
	j := &memJournal{}
	reg.SetJournal(j)
	_, err := reg.Create("c", 4, [][2]int{{0, 1}, {1, 2}, {1, 0}}, "")
	if err == nil || !strings.Contains(err.Error(), "duplicate edge (1,0)") {
		t.Fatalf("create with a repeated edge: err %v, want one naming (1,0)", err)
	}
	if _, ok := reg.Get("c"); ok || len(j.recs) != 0 {
		t.Fatalf("failed create registered %v and journaled %d records", ok, len(j.recs))
	}

	c, err := reg.Create("c", 12, ringEdges(12), "")
	if err != nil {
		t.Fatal(err)
	}
	st := c.Export()
	st.Edges = append(st.Edges, st.Edges[3])
	_, err = New(Opts{}).Restore(st)
	if err == nil || !strings.Contains(err.Error(), "duplicate edge") {
		t.Fatalf("restore with a repeated edge: err %v", err)
	}
}

// TestApplySkipsReplayedRecords: Apply is idempotent under sequence
// filtering — a record at or below a community's sequence is a no-op.
func TestApplySkipsReplayedRecords(t *testing.T) {
	reg := New(Opts{})
	c, err := reg.Restore(CommunityState{
		ID: "c", Families: 3, Edges: [][2]int{{0, 1}},
		Coloring: []int{1, 2, 1}, Seq: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stale records (≤ 10) must not apply.
	if err := reg.Apply(9, Record{Op: OpAddFamily, ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Apply(10, Record{Op: OpDelete, ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Families(); got != 3 {
		t.Fatalf("stale record applied: families = %d", got)
	}
	if _, ok := reg.Get("c"); !ok {
		t.Fatal("stale delete removed the community")
	}
	// A fresh record applies and advances the sequence.
	if err := reg.Apply(11, Record{Op: OpAddFamily, ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Families(); got != 4 {
		t.Fatalf("fresh record not applied: families = %d", got)
	}
	if got := c.Export().Seq; got != 11 {
		t.Fatalf("sequence = %d, want 11", got)
	}
	// Ops for unknown communities are skipped, not errors.
	if err := reg.Apply(12, Record{Op: OpMarry, ID: "ghost", U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	// Genuinely inconsistent records still error.
	if err := reg.Apply(13, Record{Op: OpMarry, ID: "c", U: 0, V: 99}); err == nil {
		t.Fatal("out-of-range replay accepted")
	}
}

// TestInstallReplicaKeepsNewerCopy: re-offering an older state leaves a
// fenced copy that is at or past its seq in place. A node that follows a
// community's owner and then receives its handoff can hold a copy newer
// than the offer, which was exported when the handoff began; were that
// handoff to fail after the offer, a replaced copy would lack records its
// subscription has already passed, and later records would apply on top.
func TestInstallReplicaKeepsNewerCopy(t *testing.T) {
	src := New(Opts{})
	src.SetJournal(&memJournal{})
	c, err := src.Create("c", 8, ringEdges(8), "")
	if err != nil {
		t.Fatal(err)
	}
	offer := c.Export()
	reg := New(Opts{})
	r, err := reg.InstallReplica(offer)
	if err != nil {
		t.Fatal(err)
	}
	offered := answerKey(t, r)
	for _, e := range [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 0}, {1, 5}} {
		if _, err := c.Marry(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if err := reg.Replicate(c.Seq(), Record{Op: OpMarry, ID: "c", U: e[0], V: e[1]}); err != nil {
			t.Fatal(err)
		}
	}
	newer := answerKey(t, r)
	if newer == offered || newer != answerKey(t, c) {
		t.Fatal("the replicated records must change the replica's answers to its owner's")
	}

	if _, err := reg.InstallReplica(offer); err != nil {
		t.Fatal(err)
	}
	now, _ := reg.Get("c")
	if now.Seq() != c.Seq() || !now.Fenced() {
		t.Fatalf("re-offer at seq %d left the replica at seq %d (fenced %v), want the copy at seq %d",
			offer.Seq, now.Seq(), now.Fenced(), c.Seq())
	}
	if answerKey(t, now) != newer {
		t.Fatal("re-offer of an older state changed the replica's answers")
	}
}

// TestInstallChangesOnlyItsCommunity: an install record for a whose state
// names b is refused, and the copy of b this node owns keeps its answers,
// its seq and its fence lifted. A follower keeps a record by its outer id,
// so without the refusal any stream could replace an owned community.
func TestInstallChangesOnlyItsCommunity(t *testing.T) {
	node := New(Opts{})
	b, err := node.Create("b", 6, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	before := answerKey(t, b)
	other, err := New(Opts{}).Create("b", 8, ringEdges(8), "")
	if err != nil {
		t.Fatal(err)
	}
	forged := other.Export()
	forged.Seq = 50
	if err := node.Replicate(60, Record{Op: OpInstall, ID: "a", State: &forged}); err == nil {
		t.Fatal("an install record for a whose state names b applied")
	}
	now, _ := node.Get("b")
	if now != b || now.Fenced() || now.Seq() != b.Seq() || answerKey(t, now) != before {
		t.Fatalf("the install record for a changed b: fenced %v, seq %d", now.Fenced(), now.Seq())
	}
	if _, ok := node.Get("a"); ok {
		t.Fatal("the refused install registered a")
	}
}

// TestTakeoverChangesOnlyItsCommunity: a takeover record for a whose tail
// holds a record for b is refused, and b, which this node owns in the
// record's space below the record's seq, keeps its answers and seq.
func TestTakeoverChangesOnlyItsCommunity(t *testing.T) {
	node := New(Opts{})
	b, err := node.Create("b", 6, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	before, seq := answerKey(t, b), b.Seq()
	tail := []SeqRecord{{Seq: seq + 1, Record: Record{Op: OpMarry, ID: "b", U: 0, V: 1}}}
	if err := node.Replicate(seq+2, Record{Op: OpTakeover, ID: "a", Tail: tail}); err == nil {
		t.Fatal("a takeover record for a whose tail marries in b applied")
	}
	if b.Seq() != seq || b.Fenced() || answerKey(t, b) != before {
		t.Fatalf("the takeover record for a changed b: seq %d, want %d", b.Seq(), seq)
	}
}

// BenchmarkCommunityExport exports a power-law community of 200,000
// families, the size ROADMAP item 3 measures handoffs at. Export holds the
// community's read lock throughout, so export-ms is how long each
// snapshot, catch-up state and handoff offer makes its writers wait.
func BenchmarkCommunityExport(b *testing.B) {
	g, err := graph.ParseSpec("powerlaw:n=200000,m=3", 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Opts{}).CreateFromGraph("big", g, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := c.Export(); len(st.Edges) != g.M() {
			b.Fatalf("exported %d edges, want %d", len(st.Edges), g.M())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "export-ms")
}

// BenchmarkRestore installs the export of a power-law community of 200,000
// families (599,994 edges) as a replica, as a handoff's receiver and a
// follower's catch-up do with each state they are sent. restore-ms is one
// InstallReplica: the graph built from the state's canonical edge list,
// the coloring restored and checked proper, and the registration.
func BenchmarkRestore(b *testing.B) {
	g, err := graph.ParseSpec("powerlaw:n=200000,m=3", 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Opts{}).CreateFromGraph("big", g, "")
	if err != nil {
		b.Fatal(err)
	}
	st := c.Export()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(Opts{}).InstallReplica(st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "restore-ms")
}

// TestTakeoverReplaysFromJournal: both forms of a takeover reach the node's
// journal and replay to the copies it served. A handoff's offered state is
// journaled when installed, the tail applied after it travels in the
// takeover record, and the node's writes in the new space follow; an
// election's takeover journals the replica's state with it. The old
// owner's journal is far ahead of the node's, so only the spaces tell the
// seqs apart. Replaying the node's records into an empty owner, twice,
// restores each community owned, at the same space, seq and answers.
func TestTakeoverReplaysFromJournal(t *testing.T) {
	old := New(Opts{})
	oj := &memJournal{seq: 100}
	old.SetJournal(oj)
	a, err := old.Create("a", 8, ringEdges(8), "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := old.Create("b", 6, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	offer := a.Export()
	var tail []SeqRecord
	for _, e := range [][2]int{{0, 2}, {2, 4}} {
		if _, err := a.Marry(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, SeqRecord{Seq: oj.seq, Record: oj.recs[len(oj.recs)-1]})
	}

	node := New(Opts{})
	nj := &memJournal{}
	node.SetJournal(nj)
	if _, err := node.InstallOffer(offer); err != nil {
		t.Fatal(err)
	}
	for _, r := range tail {
		if err := node.Replicate(r.Seq, r.Record); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.TakeOver("a", Space{Epoch: 2, Node: "n"}, tail, true); err != nil {
		t.Fatal(err)
	}
	if _, err := node.InstallReplica(b.Export()); err != nil {
		t.Fatal(err)
	}
	if err := node.TakeOver("b", Space{Epoch: 3, Node: "n"}, nil, false); err != nil {
		t.Fatal(err)
	}
	na, _ := node.Get("a")
	nb, _ := node.Get("b")
	if _, err := na.Marry(1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AddFamily(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Marry(1, 5); err != nil { // the same write on the old copy
		t.Fatal(err)
	}
	if answerKey(t, na) != answerKey(t, a) {
		t.Fatal("the taken-over copy of a answers unlike its old owner given the same writes")
	}

	replayed := New(Opts{})
	for round := 0; round < 2; round++ {
		for i, rec := range nj.recs {
			if err := replayed.Apply(uint64(i+1), rec); err != nil {
				t.Fatalf("round %d, replay seq %d (%s): %v", round, i+1, rec.Op, err)
			}
		}
	}
	for _, want := range []*Community{na, nb} {
		got, ok := replayed.Get(want.ID())
		if !ok {
			t.Fatalf("replay lost %s", want.ID())
		}
		if got.Space() != want.Space() || got.Seq() != want.Seq() || got.Fenced() {
			t.Fatalf("%s replayed at space %+v seq %d (fenced %v), want space %+v seq %d, owned",
				want.ID(), got.Space(), got.Seq(), got.Fenced(), want.Space(), want.Seq())
		}
		if answerKey(t, got) != answerKey(t, want) {
			t.Fatalf("%s replayed to other answers than the node served", want.ID())
		}
	}
}
