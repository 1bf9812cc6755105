package persist

import (
	"bufio"
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// ringEdges returns the cycle C_n, a community whose every marriage
// matters to the coloring.
func ringEdges(n int) [][2]int {
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return edges
}

// churn applies a deterministic mix of marriages, divorces, and family
// additions to a community, failing the test on any error.
func churn(t *testing.T, c *service.Community, seed uint64, ops int) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 42))
	for i := 0; i < ops; i++ {
		n := c.Families()
		u := r.IntN(n)
		v := r.IntN(n - 1)
		if v >= u {
			v++
		}
		switch r.IntN(10) {
		case 0:
			if _, err := c.AddFamily(); err != nil {
				t.Fatal(err)
			}
		case 1, 2, 3:
			if _, _, err := c.Divorce(u, v); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := c.Marry(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// frozenAnswers captures the externally observable schedule of a community:
// a window of holiday rows plus every family's next happy holiday from a
// few alignments. Two communities with equal answers serve byte-identical
// responses.
type frozenAnswers struct {
	Rows []service.HolidayRow
	Next map[int][]int64
}

func answersOf(t *testing.T, c *service.Community) frozenAnswers {
	t.Helper()
	rows, err := c.Window(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Window reuses row buffers; deep-copy for comparison.
	cp := make([]service.HolidayRow, len(rows))
	for i, r := range rows {
		cp[i] = service.HolidayRow{Holiday: r.Holiday, Happy: append([]int(nil), r.Happy...)}
	}
	next := make(map[int][]int64)
	for v := 0; v < c.Families(); v++ {
		for _, from := range []int64{1, 7, 1000, 1 << 40} {
			n, err := c.NextHappy(v, from)
			if err != nil {
				t.Fatal(err)
			}
			next[v] = append(next[v], n)
		}
	}
	return frozenAnswers{Rows: cp, Next: next}
}

// persistentStats strips the volatile cache counters (not persisted, by
// design) from a Stats value.
func persistentStats(st service.Stats) service.Stats {
	st.CacheHits, st.CacheMisses = 0, 0
	return st
}

// walRecs returns every record of the WAL in dir, in order.
func walRecs(t *testing.T, dir string) []walRecord {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []walRecord
	if err := scanSegments(segs, func(seq uint64, rec service.Record) error {
		recs = append(recs, walRecord{seq, rec})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// onlySegment returns the path of the one WAL segment in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("WAL segments %+v (err %v), want one", segs, err)
	}
	return segs[0].path
}

// TestCrashRecoveryMidChurn is the ISSUE's flagship scenario: a registry is
// churned past its last snapshot and the process dies abruptly — no
// graceful shutdown, no final snapshot. Recovery must replay the WAL tail
// over the snapshot and serve byte-identical window and next-happy answers
// with identical stats.
func TestCrashRecoveryMidChurn(t *testing.T) {
	dir := t.TempDir()
	// SyncAlways so every acknowledged record is on disk the moment it is
	// acked — the in-process stand-in for "the machine lost power".
	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}

	a, err := reg.Create("alpha", 24, ringEdges(24), "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Create("beta", 12, ringEdges(12), "gamma")
	if err != nil {
		t.Fatal(err)
	}
	churn(t, a, 7, 200)
	churn(t, b, 11, 100)

	// Mid-run snapshot, then more churn that only the WAL captures.
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	churn(t, a, 13, 150)
	churn(t, b, 17, 75)
	if ok, err := reg.Delete("beta"); !ok || err != nil {
		t.Fatalf("Delete(beta) = %v, %v", ok, err)
	}
	g, err := reg.Create("gamma-c", 8, ringEdges(8), "")
	if err != nil {
		t.Fatal(err)
	}
	churn(t, g, 19, 40)

	wantA, wantG := answersOf(t, a), answersOf(t, g)
	statsA, statsG := persistentStats(a.Stats()), persistentStats(g.Stats())

	// Crash: no SaveSnapshot, no graceful anything. Release the file
	// handle so the "new process" owns the directory alone.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	reg2, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ids := reg2.List(); !reflect.DeepEqual(ids, []string{"alpha", "gamma-c"}) {
		t.Fatalf("recovered communities = %v, want [alpha gamma-c]", ids)
	}
	a2, _ := reg2.Get("alpha")
	g2, _ := reg2.Get("gamma-c")
	if got := persistentStats(a2.Stats()); !reflect.DeepEqual(got, statsA) {
		t.Errorf("alpha stats diverged:\n got  %+v\n want %+v", got, statsA)
	}
	if got := persistentStats(g2.Stats()); !reflect.DeepEqual(got, statsG) {
		t.Errorf("gamma-c stats diverged:\n got  %+v\n want %+v", got, statsG)
	}
	if got := answersOf(t, a2); !reflect.DeepEqual(got, wantA) {
		t.Error("alpha window/next answers diverged after crash recovery")
	}
	if got := answersOf(t, g2); !reflect.DeepEqual(got, wantG) {
		t.Error("gamma-c window/next answers diverged after crash recovery")
	}
}

// TestGracefulRestartFromSnapshotOnly: snapshot-on-shutdown plus an empty
// (compacted) WAL restores identically with nothing to replay.
func TestGracefulRestartFromSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("c", 16, ringEdges(16), "")
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 3, 120)
	want := answersOf(t, c)
	wantStats := persistentStats(c.Stats())
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// The snapshot deleted the segments it covers, leaving one empty one.
	if data, err := os.ReadFile(onlySegment(t, dir)); err != nil || len(data) != 0 {
		t.Fatalf("post-snapshot WAL = %d bytes, err %v; want empty", len(data), err)
	}

	store2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	reg2, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	c2, ok := reg2.Get("c")
	if !ok {
		t.Fatal("community not restored")
	}
	if got := persistentStats(c2.Stats()); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("stats diverged:\n got  %+v\n want %+v", got, wantStats)
	}
	if got := answersOf(t, c2); !reflect.DeepEqual(got, want) {
		t.Error("answers diverged across graceful restart")
	}
	// New sequences must continue above the snapshot cut-point even though
	// the WAL file was empty at open.
	if _, err := c2.Marry(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := store2.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	recs := walRecs(t, dir)
	snap, err := readSnapshot(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq <= snap.Seq {
		t.Fatalf("post-restart record = %+v; want one record with seq > snapshot seq %d", recs, snap.Seq)
	}
}

// TestSaveSnapshotAfterClose: a snapshot requested after Close must fail
// before it writes anything, so a straggling snapshot goroutine cannot
// overwrite the recovery point with a registry that kept changing.
func TestSaveSnapshotAfterClose(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("c", 8, ringEdges(8), ""); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFile)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	later := service.New(service.Opts{})
	if _, err := later.Create("d", 4, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSnapshot(later); err == nil {
		t.Fatal("SaveSnapshot after Close succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(want) {
		t.Fatalf("SaveSnapshot after Close rewrote %s (err %v)", snapshotFile, err)
	}
}

// TestWALTornTailTolerated: a crash mid-append leaves a partial final line;
// recovery must keep every complete record, drop the torn one, and keep
// appending after it.
func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("c", 10, ringEdges(10), "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Marry(i%10, (i+3)%10); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := onlySegment(t, dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recsBefore := walRecs(t, dir)
	// Tear the final record in half (strip its newline and some bytes).
	torn := data[:len(data)-7]
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("open with torn WAL tail: %v", err)
	}
	defer store2.Close()
	reg2, err := store2.Load()
	if err != nil {
		t.Fatalf("load with torn WAL tail: %v", err)
	}
	recsAfter := walRecs(t, dir)
	if want := len(recsBefore) - 1; len(recsAfter) != want {
		t.Fatalf("recovered %d records, want %d (torn final dropped)", len(recsAfter), want)
	}
	// The torn record's op is gone: one fewer marriage than pre-crash.
	c2, ok := reg2.Get("c")
	if !ok {
		t.Fatal("community not restored")
	}
	if c2.Stats().Marriages >= c.Stats().Marriages+1 {
		t.Fatal("torn record appears to have been applied")
	}
	// Appending continues with strictly increasing sequences.
	if _, err := c2.Marry(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := store2.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	recs := walRecs(t, dir)
	last := recs[len(recs)-1]
	if last.Seq != recsBefore[len(recsBefore)-1].Seq {
		t.Fatalf("next seq after torn recovery = %d, want %d (reuse of the torn record's slot)",
			last.Seq, recsBefore[len(recsBefore)-1].Seq)
	}
}

// TestReplayIdempotentAfterCompactionCrash: a crash between writing the
// snapshot and deleting the WAL segments it covers leaves records the
// snapshot already reflects; replay must skip them by sequence instead of
// double-applying.
func TestReplayIdempotentAfterCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("c", 10, ringEdges(10), "")
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 5, 60)
	walPath := onlySegment(t, dir)
	preCompaction, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	want := answersOf(t, c)
	wantStats := persistentStats(c.Stats())
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Undo the deletes: pretend the process died after snapshot.json
	// landed but before the segment it covers was deleted.
	if err := os.WriteFile(walPath, preCompaction, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	reg2, err := store2.Load()
	if err != nil {
		t.Fatalf("load with stale WAL records: %v", err)
	}
	c2, ok := reg2.Get("c")
	if !ok {
		t.Fatal("community not restored")
	}
	if got := persistentStats(c2.Stats()); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("stats diverged (stale records re-applied?):\n got  %+v\n want %+v", got, wantStats)
	}
	if got := answersOf(t, c2); !reflect.DeepEqual(got, want) {
		t.Error("answers diverged: stale pre-snapshot WAL records were re-applied")
	}
}

// TestDirectorySyncOrder: every directory sync is recorded with what the
// directory then holds. Open syncs once, with the first segment created.
// A SaveSnapshot syncs three times: after its cut, which sees the new
// empty segment beside the old snapshot; after the snapshot's rename,
// which sees the new snapshot beside the segment it covers, so the rename
// is durable before any delete; and after the deletes, which leave only
// the cut's segment.
func TestDirectorySyncOrder(t *testing.T) {
	dir := t.TempDir()
	type view struct {
		segs    []uint64 // the segments' first sequences
		snapSeq uint64   // snapshot.json's cutoff, 0 without one
		walRecs int      // records across the segments
	}
	var views []view
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(d string) error {
		if d != dir {
			t.Errorf("synced %s, want the data directory %s", d, dir)
		}
		var v view
		if snap, err := readSnapshot(filepath.Join(dir, snapshotFile)); err != nil {
			t.Errorf("snapshot at a directory sync: %v", err)
		} else if snap != nil {
			v.snapSeq = snap.Seq
		}
		segs, err := listSegments(dir)
		if err != nil {
			t.Errorf("segments at a directory sync: %v", err)
		}
		for _, seg := range segs {
			v.segs = append(v.segs, seg.first)
		}
		if err := scanSegments(segs, func(uint64, service.Record) error { v.walRecs++; return nil }); err != nil {
			t.Errorf("WAL at a directory sync: %v", err)
		}
		views = append(views, v)
		return orig(d)
	}

	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if want := []view{{segs: []uint64{1}}}; !reflect.DeepEqual(views, want) {
		t.Fatalf("Open's directory syncs saw %+v, want %+v", views, want)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("c", 10, ringEdges(10), "")
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 5, 20)
	cutoff := store.Journal().Seq()
	views = nil
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	want := []view{
		{segs: []uint64{1, cutoff + 1}, walRecs: int(cutoff)},
		{segs: []uint64{1, cutoff + 1}, snapSeq: cutoff, walRecs: int(cutoff)},
		{segs: []uint64{cutoff + 1}, snapSeq: cutoff},
	}
	if !reflect.DeepEqual(views, want) {
		t.Fatalf("SaveSnapshot's directory syncs saw %+v, want %+v (cut, snapshot rename, deletes)", views, want)
	}
}

// TestCorruptMidFileRecordRejected: corruption before the final record is
// not a torn tail and must fail loudly, not silently drop data.
func TestCorruptMidFileRecordRejected(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, segmentName(1))
	good := `{"seq":1,"op":"create","id":"c","families":2,"op_extra":0,"u":0,"v":0}` + "\n"
	bad := `{"seq":2,"op":` + "\n"
	tail := `{"seq":3,"op":"marry","id":"c","u":0,"v":1}` + "\n"
	if err := os.WriteFile(walPath, []byte(good+bad+tail), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("Open = %v, want corrupt-record error", err)
	}
}

// TestSnapshotSchemaRefused: a snapshot from an incompatible layout is
// refused instead of misread.
func TestSnapshotSchemaRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile),
		[]byte(`{"schema":99,"communities":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("Open = %v, want schema error", err)
	}
}

// TestDeleteRecreateAcrossRestart: an id deleted and recreated with a
// different shape must restore to its latest incarnation.
func TestDeleteRecreateAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("c", 30, ringEdges(30), ""); err != nil {
		t.Fatal(err)
	}
	if ok, err := reg.Delete("c"); !ok || err != nil {
		t.Fatal("delete failed")
	}
	c, err := reg.Create("c", 5, nil, "delta")
	if err != nil {
		t.Fatal(err)
	}
	want := answersOf(t, c)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	reg2, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	c2, ok := reg2.Get("c")
	if !ok {
		t.Fatal("community not restored")
	}
	if got := c2.Stats(); got.Families != 5 || got.Scheduler != "dynamic-color-bound/delta" {
		t.Fatalf("restored the wrong incarnation: %+v", got)
	}
	if got := answersOf(t, c2); !reflect.DeepEqual(got, want) {
		t.Error("recreated community's answers diverged across restart")
	}
}

// TestBatchedChurnCrashRecovery: batched churn flushes through WAL.LogBatch
// (the registry discovers the BatchJournal fast path), a crash follows, and
// recovery replays the batch-written records one at a time into the same
// answers — the durability half of the batch ≡ sequential guarantee.
func TestBatchedChurnCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("alpha", 32, ringEdges(32), "")
	if err != nil {
		t.Fatal(err)
	}
	// Interleave single ops and batch flushes, snapshotting mid-stream so
	// replay crosses a batch boundary.
	r := rand.New(rand.NewPCG(31, 8))
	batch := func(k int) {
		edits := make([]core.Edit, k)
		for i := range edits {
			u := r.IntN(32)
			v := r.IntN(31)
			if v >= u {
				v++
			}
			op := core.EditInsert
			if r.IntN(10) < 4 {
				op = core.EditDelete
			}
			edits[i] = core.Edit{Op: op, U: u, V: v}
		}
		if _, err := c.ChurnBatch(edits, nil); err != nil {
			t.Fatal(err)
		}
	}
	batch(40)
	churn(t, c, 23, 30)
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	batch(64)
	churn(t, c, 29, 20)
	batch(17)

	want := answersOf(t, c)
	stats := persistentStats(c.Stats())
	if err := store.Close(); err != nil { // crash: no final snapshot
		t.Fatal(err)
	}

	store2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	reg2, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	c2, ok := reg2.Get("alpha")
	if !ok {
		t.Fatal("community lost")
	}
	if got := persistentStats(c2.Stats()); !reflect.DeepEqual(got, stats) {
		t.Fatalf("stats diverged:\n got  %+v\n want %+v", got, stats)
	}
	if got := answersOf(t, c2); !reflect.DeepEqual(got, want) {
		t.Fatal("window/next answers diverged after batched-churn crash recovery")
	}
}

// TestWALLogBatchSequencesAndSync: LogBatch assigns consecutive sequences
// interleaved correctly with single Logs, writes every record durably under
// SyncAlways, and an empty batch is a no-op.
func TestWALLogBatchSequencesAndSync(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, SyncAlways, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := w.Log(service.Record{Op: service.OpMarry, ID: "c", U: 0, V: 1}); err != nil || seq != 1 {
		t.Fatalf("Log = %d, %v", seq, err)
	}
	last, err := w.LogBatch([]service.Record{
		{Op: service.OpMarry, ID: "c", U: 1, V: 2},
		{Op: service.OpDivorce, ID: "c", U: 0, V: 1},
		{Op: service.OpMarry, ID: "c", U: 2, V: 3},
	})
	if err != nil || last != 4 {
		t.Fatalf("LogBatch = %d, %v; want 4", last, err)
	}
	if last, err := w.LogBatch(nil); err != nil || last != 4 {
		t.Fatalf("empty LogBatch = %d, %v; want 4, nil", last, err)
	}
	if seq, err := w.Log(service.Record{Op: service.OpMarry, ID: "c", U: 3, V: 4}); err != nil || seq != 5 {
		t.Fatalf("Log after batch = %d, %v; want 5", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs := walRecs(t, dir)
	if len(recs) != 5 {
		t.Fatalf("WAL has %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if recs[2].Op != service.OpDivorce {
		t.Fatalf("record 3 op = %q, want divorce", recs[2].Op)
	}
}

// walRecords is a mix of every op, a poly create included, for the WAL
// append tests.
func walRecords() []service.Record {
	return []service.Record{
		{Op: service.OpCreate, ID: "c", N: 4, Edges: ringEdges(4), Code: "omega"},
		{Op: service.OpCreate, ID: "p", N: 3, Edges: [][2]int{{0, 1}, {1, 2}}, Code: "layering",
			Kind: service.KindPoly, Demands: []int64{4, 8}, DefaultDemand: 16},
		{Op: service.OpMarry, ID: "c", U: 0, V: 2},
		{Op: service.OpMarry, ID: "p", U: 0, V: 2, Demand: 2},
		{Op: service.OpAddFamily, ID: "c"},
		{Op: service.OpDivorce, ID: "c", U: 0, V: 1},
		{Op: service.OpDelete, ID: "p"},
	}
}

// TestWALLogMatchesLogBatchBytes: Log is a batch of one, so records
// appended one by one leave a file byte-identical to the same records
// appended in one LogBatch.
func TestWALLogMatchesLogBatchBytes(t *testing.T) {
	recs := walRecords()
	one, batch := t.TempDir(), t.TempDir()
	w, err := openWAL(one, SyncBatch, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if seq, err := w.Log(rec); err != nil || seq != uint64(i+1) {
			t.Fatalf("Log record %d = %d, %v", i, seq, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = openWAL(batch, SyncBatch, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last, err := w.LogBatch(recs); err != nil || last != uint64(len(recs)) {
		t.Fatalf("LogBatch = %d, %v; want %d", last, err, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(one, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(batch, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("Log wrote\n%s\nLogBatch wrote\n%s", a, b)
	}
}

// TestWALFailedWriteFailStops: a failed buffered write fail-stops the WAL
// whichever append hit it, so both appends then refuse with the fail-stop,
// and the message names the write, not an fsync.
func TestWALFailedWriteFailStops(t *testing.T) {
	// Larger than bufio's 4 KiB buffer, so the append writes through to
	// the closed file instead of buffering.
	big := service.Record{Op: service.OpAddFamily, ID: strings.Repeat("x", 5000)}
	appends := map[string]func(w *WAL) error{
		"Log": func(w *WAL) error {
			_, err := w.Log(big)
			return err
		},
		"LogBatch": func(w *WAL) error {
			_, err := w.LogBatch([]service.Record{big})
			return err
		},
	}
	for name, failing := range appends {
		t.Run(name, func(t *testing.T) {
			w, err := openWAL(t.TempDir(), SyncBatch, time.Hour, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.f.Close(); err != nil {
				t.Fatal(err)
			}
			if err := failing(w); err == nil {
				t.Fatal("append to a closed file succeeded")
			}
			for nextName, next := range appends {
				err := next(w)
				if err == nil || !strings.Contains(err.Error(), "fail-stopped") ||
					!strings.Contains(err.Error(), "append WAL batch") || strings.Contains(err.Error(), "fsync") {
					t.Fatalf("%s after the failed write: err = %v, want a fail-stop naming the write", nextName, err)
				}
			}
			if got := w.Seq(); got != 0 {
				t.Fatalf("failed append advanced the sequence to %d", got)
			}
		})
	}
}

// TestWALFailedFsyncFailStops: a failed group-commit fsync fail-stops the
// WAL, so no append is acknowledged after it (the kernel may have dropped
// the pages it could not write, and a later fsync would not say so). A
// pipe stands in for the segment: writes to it succeed, fsync fails.
func TestWALFailedFsyncFailStops(t *testing.T) {
	r, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w, err := openWAL(t.TempDir(), SyncBatch, time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.f.Close()
	w.f, w.w = pw, bufio.NewWriter(pw)
	w.mu.Unlock()
	rec := service.Record{Op: service.OpAddFamily, ID: "c"}
	if _, err := w.Log(rec); err != nil {
		t.Fatal(err)
	}
	// The flusher's next tick flushes the record into the pipe and fails to
	// fsync it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		failed := w.failed
		w.mu.Unlock()
		if failed != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failed group-commit fsyncs left the WAL accepting appends")
		}
	}
	refusals := map[string]func() error{
		"Log": func() error {
			_, err := w.Log(rec)
			return err
		},
		"LogBatch": func() error {
			_, err := w.LogBatch([]service.Record{rec})
			return err
		},
		"Sync": w.Sync,
		"cut": func() error {
			_, err := w.cut()
			return err
		},
		"Close": w.Close,
	}
	for _, name := range []string{"Log", "LogBatch", "Sync", "cut", "Close"} {
		if err := refusals[name](); err == nil || !strings.Contains(err.Error(), "fsync") {
			t.Fatalf("%s after a failed fsync: err = %v, want a refusal naming the fsync", name, err)
		}
	}
}

// TestSnapshotNotPinned: nothing reads a snapshot once it is written or
// restored, so neither SaveSnapshot nor Load keeps one beside the
// registry.
func TestSnapshotNotPinned(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("c", 8, ringEdges(8), ""); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	if store.snap != nil {
		t.Fatal("SaveSnapshot kept the snapshot it wrote")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.snap == nil {
		t.Fatal("Open did not read the snapshot")
	}
	if _, err := store.Load(); err != nil {
		t.Fatal(err)
	}
	if store.snap != nil {
		t.Fatal("Load kept the snapshot it restored")
	}
}

// TestSnapshotFailedAfterCut: a SaveSnapshot that fails after its cut
// leaves the old snapshot and both segments, which reopen to the same
// answers; the next SaveSnapshot that succeeds leaves one segment.
func TestSnapshotFailedAfterCut(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("c", 12, ringEdges(12), "")
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 3, 40)
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	churn(t, c, 5, 40)
	// A directory in the way of the snapshot's temporary file fails the
	// write, after the cut.
	blocker := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSnapshot(reg); err == nil {
		t.Fatal("SaveSnapshot succeeded without its temporary file")
	}
	churn(t, c, 7, 20) // lands in the segment the failed snapshot cut to
	if segs, err := listSegments(dir); err != nil || len(segs) != 2 {
		t.Fatalf("after a failed snapshot: segments %+v (err %v), want the old and the cut's", segs, err)
	}
	want := answersOf(t, c)
	wantStats := persistentStats(c.Stats())
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store, err = Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg, err = store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, ok := reg.Get("c")
	if !ok {
		t.Fatal("community not restored")
	}
	if got := persistentStats(c.Stats()); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("stats diverged:\n got  %+v\n want %+v", got, wantStats)
	}
	if got := answersOf(t, c); !reflect.DeepEqual(got, want) {
		t.Error("answers diverged after a snapshot that failed after its cut")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	onlySegment(t, dir)
}

// TestLegacyWALAdopted: a data directory written before the WAL had
// segments, snapshot.json beside a wal.jsonl of the records since, loads
// to the same answers and holds no wal.jsonl once opened. A directory
// with both wal.jsonl and segments is refused rather than half read.
func TestLegacyWALAdopted(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("c", 16, ringEdges(16), "")
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 9, 60)
	if err := store.SaveSnapshot(reg); err != nil {
		t.Fatal(err)
	}
	churn(t, c, 10, 60)
	want := answersOf(t, c)
	wantStats := persistentStats(c.Stats())
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "wal.jsonl")
	if err := os.Rename(onlySegment(t, dir), legacy); err != nil {
		t.Fatal(err)
	}

	store, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("wal.jsonl is still there after Open (stat: %v)", err)
	}
	onlySegment(t, dir)
	reg, err = store.Load()
	if err != nil {
		t.Fatal(err)
	}
	c, ok := reg.Get("c")
	if !ok {
		t.Fatal("community not restored")
	}
	if got := persistentStats(c.Stats()); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("stats diverged:\n got  %+v\n want %+v", got, wantStats)
	}
	if got := answersOf(t, c); !reflect.DeepEqual(got, want) {
		t.Error("answers diverged after adopting wal.jsonl")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(legacy, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "wal.jsonl") {
		t.Fatalf("Open with both wal.jsonl and segments = %v, want a refusal naming it", err)
	}
}

// TestSegmentCorruptionRefused: a cut syncs a segment before the next one
// exists, and names the next one past every record before it. So a torn
// record at the end of a segment that is not the last, or a record at or
// above the next segment's first sequence, is corruption: Open, which
// reads only the last segment, succeeds, and Load fails naming the file.
func TestSegmentCorruptionRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(next []byte) []byte // what to append to the first segment, given the next one's first record
	}{
		{"torn record", func(next []byte) []byte { return next[:len(next)-1] }},
		{"record at the next segment's first sequence", func(next []byte) []byte { return next }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			reg, err := store.Load()
			if err != nil {
				t.Fatal(err)
			}
			c, err := reg.Create("c", 10, ringEdges(10), "")
			if err != nil {
				t.Fatal(err)
			}
			churn(t, c, 3, 20)
			if _, err := store.wal.cut(); err != nil {
				t.Fatal(err)
			}
			churn(t, c, 4, 20)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := listSegments(dir)
			if err != nil || len(segs) != 2 {
				t.Fatalf("segments %+v (err %v), want two", segs, err)
			}
			data, err := os.ReadFile(segs[1].path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(segs[0].path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.damage(data[:bytes.IndexByte(data, '\n')+1])); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			store, err = Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer store.Close()
			if _, err := store.Load(); err == nil || !strings.Contains(err.Error(), segs[0].path) {
				t.Fatalf("Load = %v, want an error naming %s", err, segs[0].path)
			}
		})
	}
}
