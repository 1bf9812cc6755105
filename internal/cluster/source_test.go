package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/wire"
)

// TestTailFor: the ring walk behind a handoff's tail keeps one community's
// records with sequences in (after, through], hands back the bytes it
// fanned out, and reports the range uncovered once the ring has wrapped
// past after.
func TestTailFor(t *testing.T) {
	src, err := NewSource(SourceOpts{Owner: service.New(service.Opts{}), RingSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	marry := func(id string, u int) service.Record {
		return service.Record{Op: service.OpMarry, ID: id, U: u, V: u + 1}
	}
	logged := func(seq uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Sequences 1–6 as a b a a b a, through both appends.
	logged(src.Log(marry("a", 0)))
	logged(src.LogBatch([]service.Record{marry("b", 0), marry("a", 1)}))
	logged(src.Log(marry("a", 2)))
	logged(src.LogBatch([]service.Record{marry("b", 1), marry("a", 3)}))

	type tail struct {
		seqs    []uint64
		covered bool
	}
	type tailCase struct {
		community      string
		after, through uint64
		want           tail
	}
	tailFor := func(community string, after, through uint64) tail {
		recs, covered := src.TailFor(community, after, through)
		var seqs []uint64
		for _, r := range recs {
			var rec service.Record
			if err := json.Unmarshal(r.Data, &rec); err != nil || rec.ID != community {
				t.Fatalf("TailFor(%q) returned seq %d holding %s (%v)", community, r.Seq, r.Data, err)
			}
			seqs = append(seqs, r.Seq)
		}
		return tail{seqs, covered}
	}
	cases := []tailCase{
		{"a", 0, 6, tail{[]uint64{1, 3, 4, 6}, true}},
		{"a", 1, 4, tail{[]uint64{3, 4}, true}},
		{"b", 0, 6, tail{[]uint64{2, 5}, true}},
		{"b", 2, 4, tail{nil, true}},
		{"c", 0, 6, tail{nil, true}},
	}
	for _, tc := range cases {
		if got := tailFor(tc.community, tc.after, tc.through); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("TailFor(%q, %d, %d) = %+v, want %+v", tc.community, tc.after, tc.through, got, tc.want)
		}
	}

	// Two more records evict sequences 1 and 2: the ring now holds 3–8.
	logged(src.LogBatch([]service.Record{marry("b", 2), marry("a", 4)}))
	cases = []tailCase{
		{"a", 2, 8, tail{[]uint64{3, 4, 6, 8}, true}},
		{"a", 1, 8, tail{[]uint64{3, 4, 6, 8}, false}},
		{"b", 0, 8, tail{[]uint64{5, 7}, false}},
		{"b", 5, 7, tail{[]uint64{7}, true}},
	}
	for _, tc := range cases {
		if got := tailFor(tc.community, tc.after, tc.through); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("after wrapping, TailFor(%q, %d, %d) = %+v, want %+v", tc.community, tc.after, tc.through, got, tc.want)
		}
	}

	// An empty ring covers exactly the range at or past its sequence.
	empty, err := NewSource(SourceOpts{Owner: service.New(service.Opts{})})
	if err != nil {
		t.Fatal(err)
	}
	empty.seq = 5
	if recs, covered := empty.TailFor("a", 5, 9); len(recs) != 0 || !covered {
		t.Errorf("empty ring TailFor(a, 5, 9) = %v, %v; want none, covered", recs, covered)
	}
	if _, covered := empty.TailFor("a", 4, 9); covered {
		t.Error("empty ring claims to cover sequence 5, which it never held")
	}
}

// TestRingBoundsBytes: the ring holds at most maxRingBytes of records, not
// only RingSize records. Four records of 17 MiB, together past the bound,
// leave the newest three, and TailFor reports a range reaching below them
// as uncovered.
func TestRingBoundsBytes(t *testing.T) {
	src, err := NewSource(SourceOpts{Owner: service.New(service.Opts{})})
	if err != nil {
		t.Fatal(err)
	}
	const size = 17 << 20
	if 4*size <= maxRingBytes || 3*(size+1<<10) > maxRingBytes {
		t.Fatalf("4 records of %d bytes must pass maxRingBytes and 3 fit it", size)
	}
	pad := strings.Repeat("x", size)
	for i := 0; i < 4; i++ {
		if _, err := src.Log(service.Record{Op: service.OpDivorce, ID: "gone", Code: pad}); err != nil {
			t.Fatal(err)
		}
	}
	recs, covered := src.TailFor("", 1, 4)
	var seqs []uint64
	for _, r := range recs {
		seqs = append(seqs, r.Seq)
	}
	if !covered || !reflect.DeepEqual(seqs, []uint64{2, 3, 4}) {
		t.Fatalf("TailFor(1, 4) = %v, covered %v; want the newest three, covered", seqs, covered)
	}
	if _, covered := src.TailFor("", 0, 4); covered {
		t.Fatal("the ring claims to cover seq 1, which the byte bound evicted")
	}
}

// TestSourceOverWAL runs holidayd's cluster configuration with -data-dir:
// a Source wrapping the persist WAL is the owner's journal. Single ops, a
// ChurnBatch, creates of both kinds and a delete must keep the Source's
// sequence equal to the WAL's after every write, a follower must mirror
// the owner, and a reopened store must answer like the owner.
func TestSourceOverWAL(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{Sync: persist.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	wal := store.Journal()
	src, err := NewSource(SourceOpts{Owner: owner, Journal: wal, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	owner.SetJournal(src)
	addr := serveStream(t, listenTCP(t), src)
	replica := service.New(service.Opts{})
	fol, err := NewFollower(FollowerOpts{Owner: replica, Addr: addr, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fol.Run(ctx)

	wrote := func(step string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if s, w := src.Seq(), wal.Seq(); s != w || s == 0 {
			t.Fatalf("after %s: source seq %d, WAL seq %d", step, s, w)
		}
	}
	alpha, err := owner.Create("alpha", 6, [][2]int{{0, 1}, {1, 2}}, "")
	wrote("create alpha", err)
	_, err = alpha.Marry(0, 2)
	wrote("marry", err)
	_, _, err = alpha.Divorce(0, 1)
	wrote("divorce", err)
	_, err = alpha.AddFamily()
	wrote("add family", err)
	_, err = alpha.ChurnBatch([]core.Edit{
		{Op: core.EditInsert, U: 1, V: 3},
		{Op: core.EditInsert, U: 2, V: 4},
		{Op: core.EditDelete, U: 0, V: 2},
		{Op: core.EditInsert, U: 5, V: 6},
	}, nil)
	wrote("churn batch", err)
	poly, err := owner.CreateSpec(service.CreateSpec{ID: "poly", Kind: service.KindPoly, Families: 4,
		Edges: [][2]int{{0, 1}, {2, 3}}, DefaultDemand: 8})
	wrote("create poly", err)
	_, err = poly.MarryDemand(1, 2, 4)
	wrote("poly marry", err)
	_, err = owner.Create("gamma", 3, nil, "")
	wrote("create gamma", err)
	_, err = owner.Delete("gamma")
	wrote("delete gamma", err)

	want := src.Seq()
	waitFor(t, "replication", func() bool { return fol.Applied() >= want })
	for _, id := range []string{"alpha", "poly"} {
		assertMirror(t, owner, replica, id)
	}
	if _, ok := replica.Get("gamma"); ok {
		t.Fatal("replica kept the deleted community")
	}

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	restored, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.List(), []string{"alpha", "poly"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store holds %v, want %v", got, want)
	}
	for _, id := range []string{"alpha", "poly"} {
		assertSameAnswers(t, owner, restored, id)
	}
}

// TestCloseRefusesLateSubscriber: Close drops the subscription it finds,
// and a subscription that arrives after Close has dropped the subscribers
// is refused rather than registered, or Close would wait for a stream that
// nothing ends. holidayd closes its Source on every shutdown.
func TestCloseRefusesLateSubscriber(t *testing.T) {
	owner := service.New(service.Opts{})
	src, err := NewSource(SourceOpts{Owner: owner, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	owner.SetJournal(src)
	srv := httptest.NewServer(src)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // ends the streams, which releases a Close that hangs
	subscribe := func() error {
		resp, err := request(ctx, http.MethodGet, srv.URL, "?from=0", nil)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	resp, err := request(ctx, http.MethodGet, srv.URL, "?from=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The subscription streams while Close runs.
	closed := make(chan struct{})
	go func() {
		src.Close()
		close(closed)
	}()
	// Unavailable is the envelope of a 503.
	waitFor(t, "Close to refuse new streams", func() bool {
		var se *service.Error
		return errorAs(subscribe(), &se) && se.Code == service.CodeUnavailable
	})
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2s of a late subscription")
	}
}

// TestStreamCutsFramesByBytes: two records of 9 MiB each, the size of an
// n = 200,000 community's install record, together past wire.MaxFrame,
// reach a follower that catches up through the ring, which sends them in
// one batch: the sender cuts the batch into frames the follower's decoder
// accepts. The records pad a divorce in a community the follower lacks, so
// they cost it no restore.
func TestStreamCutsFramesByBytes(t *testing.T) {
	owner := service.New(service.Opts{})
	src, err := NewSource(SourceOpts{Owner: owner, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	owner.SetJournal(src)
	pad := strings.Repeat("x", 9<<20)
	big := service.Record{Op: service.OpDivorce, ID: "gone", Code: pad}
	if _, err := src.LogBatch([]service.Record{big, big}); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Create("after", 4, nil, ""); err != nil {
		t.Fatal(err)
	}
	addr := serveStream(t, listenTCP(t), src)
	replica := service.New(service.Opts{})
	fol, err := NewFollower(FollowerOpts{Owner: replica, Addr: addr, Backoff: 100 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitFor(t, "the record after the two large ones on the follower", func() bool {
		_, ok := replica.Get("after")
		return ok
	})
}

// partsWriter is a streamed response that logs each write deadline, write
// and flush a flusher makes.
type partsWriter struct {
	httptest.ResponseRecorder
	log []string
}

func (w *partsWriter) Write(p []byte) (int, error) {
	w.log = append(w.log, fmt.Sprintf("write %d", len(p)))
	return len(p), nil
}

func (w *partsWriter) Flush() { w.log = append(w.log, "flush") }

func (w *partsWriter) SetWriteDeadline(time.Time) error {
	w.log = append(w.log, "deadline")
	return nil
}

// TestFlusherWritesInParts: a stream writes a frame past wire.MaxFrame
// wire.MaxFrame bytes at a time, each part under a fresh write deadline
// and flushed, so a follower reading a large state slowly is not failed
// for its size alone.
func TestFlusherWritesInParts(t *testing.T) {
	w := &partsWriter{}
	f := flusher{w, http.NewResponseController(w)}
	if n, err := f.Write(make([]byte, 2*wire.MaxFrame+5)); err != nil || n != 2*wire.MaxFrame+5 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	part := fmt.Sprintf("write %d", wire.MaxFrame)
	want := []string{"deadline", part, "flush", "deadline", part, "flush", "deadline", "write 5", "flush"}
	if !reflect.DeepEqual(w.log, want) {
		t.Fatalf("the flusher did %v, want %v", w.log, want)
	}
}

// TestSenderReleasesLargeFrames: after a frame past wire.MaxFrame, a
// stream's sender stages its next frame in a buffer no larger than
// MaxFrame, so a subscription does not pin the largest frame it sent.
func TestSenderReleasesLargeFrames(t *testing.T) {
	out := &sender{w: io.Discard}
	if err := out.records([]wire.RawRecord{{Seq: 1, Data: make([]byte, wire.MaxFrame)}}); err != nil {
		t.Fatal(err)
	}
	if err := out.send(wire.AppendHeartbeat(out.buf[:0], 1)); err != nil {
		t.Fatal(err)
	}
	if cap(out.buf) > wire.MaxFrame {
		t.Fatalf("the sender keeps a %d-byte buffer after a large frame, want at most wire.MaxFrame", cap(out.buf))
	}
}
