package persist

import (
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
	// The snapshot compacted the WAL down to nothing.
	if data, err := os.ReadFile(filepath.Join(dir, walFile)); err != nil || len(data) != 0 {
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
	recs, _, err := scanWAL(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq <= store2.snap.Seq {
		t.Fatalf("post-restart record = %+v; want one record with seq > snapshot seq %d", recs, store2.snap.Seq)
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

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recsBefore, _, err := scanWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
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
	recsAfter, _, err := scanWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
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
	recs, _, err := scanWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.Seq != recsBefore[len(recsBefore)-1].Seq {
		t.Fatalf("next seq after torn recovery = %d, want %d (reuse of the torn record's slot)",
			last.Seq, recsBefore[len(recsBefore)-1].Seq)
	}
}

// TestReplayIdempotentAfterCompactionCrash: a crash between writing the
// snapshot and compacting the WAL leaves records the snapshot already
// reflects; replay must skip them by sequence instead of double-applying.
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
	walPath := filepath.Join(dir, walFile)
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
	// Undo the compaction: pretend the process died after snapshot.json
	// landed but before the WAL rewrite.
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
// directory then holds. Open syncs once, with wal.jsonl created. The first
// sync of a SaveSnapshot must see the new snapshot beside the uncompacted
// WAL, so the snapshot's rename is durable before compaction's; the second
// sees the compacted WAL.
func TestDirectorySyncOrder(t *testing.T) {
	dir := t.TempDir()
	type view struct {
		wal     bool   // wal.jsonl exists
		snapSeq uint64 // snapshot.json's cutoff, 0 without one
		walRecs int    // records in wal.jsonl
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
		_, err := os.Stat(filepath.Join(dir, walFile))
		v.wal = err == nil
		recs, _, err := scanWAL(filepath.Join(dir, walFile))
		if err != nil {
			t.Errorf("WAL at a directory sync: %v", err)
		}
		v.walRecs = len(recs)
		views = append(views, v)
		return orig(d)
	}

	store, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if want := []view{{wal: true}}; !reflect.DeepEqual(views, want) {
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
		{wal: true, snapSeq: cutoff, walRecs: int(cutoff)},
		{wal: true, snapSeq: cutoff},
	}
	if !reflect.DeepEqual(views, want) {
		t.Fatalf("SaveSnapshot's directory syncs saw %+v, want %+v (snapshot rename, then compaction)", views, want)
	}
}

// TestCorruptMidFileRecordRejected: corruption before the final record is
// not a torn tail and must fail loudly, not silently drop data.
func TestCorruptMidFileRecordRejected(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walFile)
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
	path := filepath.Join(dir, "wal.jsonl")
	w, _, err := openWAL(path, SyncAlways, 0, 0)
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
	recs, _, err := scanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
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
	one, batch := filepath.Join(t.TempDir(), "one.jsonl"), filepath.Join(t.TempDir(), "batch.jsonl")
	w, _, err := openWAL(one, SyncBatch, time.Hour, 0)
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
	w, _, err = openWAL(batch, SyncBatch, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last, err := w.LogBatch(recs); err != nil || last != uint64(len(recs)) {
		t.Fatalf("LogBatch = %d, %v; want %d", last, err, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(batch)
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
			w, _, err := openWAL(filepath.Join(t.TempDir(), "wal.jsonl"), SyncBatch, time.Hour, 0)
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
