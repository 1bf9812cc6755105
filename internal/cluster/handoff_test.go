package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/wire"
)

// hNode is one in-process node for handoff tests: an owner whose journal is
// a Source serving the stream route, plus that node's router.
type hNode struct {
	owner *service.Owner
	src   *Source
	rt    *service.Router
	srv   *http.Server // the node's API; set by bootAPINode
}

func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

func bootHNode(t *testing.T, id string, nodes []service.Node, ln net.Listener) *hNode {
	t.Helper()
	return bootNode(t, id, nodes, ln, SourceOpts{})
}

// bootNode is bootHNode with the node's Source built from o: its owner (a
// new one when nil), journal and ring size.
func bootNode(t *testing.T, id string, nodes []service.Node, ln net.Listener, o SourceOpts) *hNode {
	t.Helper()
	if o.Owner == nil {
		o.Owner = service.New(service.Opts{})
	}
	rt, err := service.NewRouter(service.RouterOpts{Self: id, Nodes: nodes})
	if err != nil {
		t.Fatalf("NewRouter(%s): %v", id, err)
	}
	o.Router, o.Heartbeat = rt, 20*time.Millisecond
	src, err := NewSource(o)
	if err != nil {
		t.Fatalf("NewSource(%s): %v", id, err)
	}
	o.Owner.SetJournal(src)
	serveStream(t, ln, src)
	return &hNode{owner: o.Owner, src: src, rt: rt}
}

// bootHandoffPair boots nodes a and b, both accepting handoffs.
func bootHandoffPair(t *testing.T) (a, b *hNode) {
	t.Helper()
	lnA, lnB := listenTCP(t), listenTCP(t)
	nodes := []service.Node{
		{ID: "a", Addr: "http://" + lnA.Addr().String()},
		{ID: "b", Addr: "http://" + lnB.Addr().String()},
	}
	return bootHNode(t, "a", nodes, lnA), bootHNode(t, "b", nodes, lnB)
}

func windowJSON(t *testing.T, o *service.Owner, id string) string {
	t.Helper()
	c, ok := o.Get(id)
	if !ok {
		t.Fatalf("community %q missing", id)
	}
	w, err := c.Window(1, 200)
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	b, _ := json.Marshal(w)
	return string(b)
}

// TestHandoffEndToEnd moves a live community from a to b and checks the
// whole contract: byte-identical answers across the cut, ownership and
// fencing flipped on both ends, both routers at the new epoch, and the new
// owner writable while the old one refuses.
func TestHandoffEndToEnd(t *testing.T) {
	a, b := bootHandoffPair(t)
	c := seed(t, a.owner, "alpha", 6)
	want := windowJSON(t, a.owner, "alpha")
	wantSeq := c.Seq()

	table := a.rt.Placement()
	table.Epoch++
	table.Assign["alpha"] = "b"
	cut, pause, err := a.src.Handoff("alpha", table)
	if err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	if cut != wantSeq {
		t.Fatalf("cut seq = %d, want %d", cut, wantSeq)
	}
	if pause <= 0 {
		t.Fatalf("pause = %v, want > 0", pause)
	}

	bc, ok := b.owner.Get("alpha")
	if !ok {
		t.Fatal("new owner has no community after the handoff")
	}
	if bc.Fenced() {
		t.Fatal("new owner's community is still fenced after the ack")
	}
	if got := windowJSON(t, b.owner, "alpha"); got != want {
		t.Fatalf("window diverged across the handoff:\nold %s\nnew %s", want, got)
	}
	if !c.Fenced() {
		t.Fatal("old owner's community is not fenced after the handoff")
	}
	if a.rt.Epoch() != table.Epoch || b.rt.Epoch() != table.Epoch {
		t.Fatalf("epochs not flipped: a=%d b=%d want %d", a.rt.Epoch(), b.rt.Epoch(), table.Epoch)
	}
	if a.rt.Place("alpha") != "b" || b.rt.Place("alpha") != "b" {
		t.Fatal("placement does not point at the new owner on both nodes")
	}

	// The new owner serves writes, in the sequence space its takeover
	// started...
	if _, err := bc.Marry(1, 2); err != nil {
		t.Fatalf("write on the new owner: %v", err)
	}
	// ...and the old copy fails closed.
	if _, err := c.Marry(1, 2); err == nil {
		t.Fatal("write on the old owner succeeded after the handoff")
	}
}

// TestHandoffPauseExcludesInstall: the receiver answers the offer only
// once it has installed the state, and the sender fences only after that
// answer. A receiver that answers the offer 300ms late therefore leaves
// the community writable on the sender for those 300ms, the pause covers
// the tail alone, and the writes made meanwhile reach the new owner.
func TestHandoffPauseExcludesInstall(t *testing.T) {
	lnA, lnB := listenTCP(t), listenTCP(t)
	nodes := []service.Node{
		{ID: "a", Addr: "http://" + lnA.Addr().String()},
		{ID: "b", Addr: "http://" + lnB.Addr().String()},
	}
	a := bootHNode(t, "a", nodes, lnA)
	b := bootHNode(t, "b", nodes, listenTCP(t))
	c := seed(t, a.owner, "alpha", 8)

	// b's stream route holds its answer to the first request, the offer,
	// for the delay, while a writes to alpha throughout it.
	const delay = 300 * time.Millisecond
	var once sync.Once
	var writes atomic.Int32
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.src.ServeHTTP(w, r)
		once.Do(func() {
			for end := time.Now().Add(delay); time.Now().Before(end); writes.Add(1) {
				var err error
				if writes.Load()%2 == 0 {
					_, err = c.Marry(2, 3)
				} else {
					_, _, err = c.Divorce(2, 3)
				}
				if err != nil {
					t.Errorf("write %d while the offer's answer is delayed: %v", writes.Load(), err)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	})}
	go srv.Serve(lnB)
	t.Cleanup(func() { srv.Close() })

	table := a.rt.Placement()
	table.Epoch++
	table.Assign["alpha"] = "b"
	cut, pause, err := a.src.Handoff("alpha", table)
	if err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	if writes.Load() == 0 {
		t.Fatal("no write landed while the offer's answer was delayed")
	}
	if pause >= delay {
		t.Fatalf("pause = %v, want under the %v the receiver took to answer the offer", pause, delay)
	}
	if cut != c.Seq() {
		t.Fatalf("cut seq = %d, want %d", cut, c.Seq())
	}
	if bc, ok := b.owner.Get("alpha"); !ok || bc.Fenced() {
		t.Fatal("b does not own alpha after the handoff")
	}
	if got, want := windowJSON(t, b.owner, "alpha"), windowJSON(t, a.owner, "alpha"); got != want {
		t.Fatalf("the writes made during the offer did not reach the new owner:\nold %s\nnew %s", want, got)
	}
}

// TestHandoffTailFallsBackToState: the sender's ring holds 4 records, and
// 6 writes land while the receiver holds back its answer to the offer, so
// the ring no longer reaches back to the offer's cut and the tail is the
// sender's fenced state, as an install record. The handoff succeeds, and
// the new owner answers with the old owner's last window. Its journal, a
// WAL reopened with no snapshot, restores the community at the same
// space, seq and window, since the takeover record carries that state, and
// a third node following the new owner reaches the same.
func TestHandoffTailFallsBackToState(t *testing.T) {
	lnA, lnB := listenTCP(t), listenTCP(t)
	nodes := []service.Node{
		{ID: "a", Addr: "http://" + lnA.Addr().String()},
		{ID: "b", Addr: "http://" + lnB.Addr().String()},
	}
	a := bootNode(t, "a", nodes, lnA, SourceOpts{RingSize: 4})
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{Sync: persist.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	owner, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	wal := store.Journal()
	b := bootNode(t, "b", nodes, listenTCP(t), SourceOpts{Owner: owner, Journal: wal})
	c := seed(t, a.owner, "alpha", 8)
	cut1 := c.Seq()

	// b's stream route holds its answer to the first request, the offer,
	// while a writes to alpha 6 times.
	var once sync.Once
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.src.ServeHTTP(w, r)
		once.Do(func() {
			for u := 1; u <= 6; u++ {
				if _, err := c.Marry(u, u+1); err != nil {
					t.Errorf("write %d while the offer's answer is held back: %v", u, err)
				}
			}
		})
	})}
	go srv.Serve(lnB)
	t.Cleanup(func() { srv.Close() })

	third := service.New(service.Opts{})
	fol, err := NewFollower(FollowerOpts{Owner: third, Addr: nodes[1].Addr, Backoff: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()
	defer func() { cancel(); <-done }()

	table := a.rt.Placement()
	table.Epoch++
	table.Assign["alpha"] = "b"
	cut, _, err := a.src.Handoff("alpha", table)
	if err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	if _, covered := a.src.TailFor("alpha", cut1, cut); covered || cut < cut1+6 {
		t.Fatalf("the ring covers the tail (%d, %d]: the test needs 6 writes past a 4-record ring", cut1, cut)
	}
	bc, ok := b.owner.Get("alpha")
	if !ok || bc.Fenced() {
		t.Fatal("b does not own alpha after the handoff")
	}
	want := windowJSON(t, a.owner, "alpha")
	if got := windowJSON(t, b.owner, "alpha"); got != want {
		t.Fatalf("b does not answer with a's last window:\na %s\nb %s", want, got)
	}

	waitFor(t, "the third node to reach b's copy", func() bool {
		tc, ok := third.Get("alpha")
		return ok && tc.Seq() == bc.Seq() && tc.Space() == bc.Space()
	})
	assertMirror(t, b.owner, third, "alpha")

	// b writes nothing more: close its WAL, as a restart does, and reopen it.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	restored, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rc, ok := restored.Get("alpha"); !ok || rc.Space() != bc.Space() {
		t.Fatalf("b's journal restores alpha: %v, want it in space %+v", ok, bc.Space())
	}
	assertSameAnswers(t, b.owner, restored, "alpha")
}

// TestHandoffRefusals covers the sender-side preconditions: absent
// community, fenced replica, self-assignment, unassigned table.
func TestHandoffRefusals(t *testing.T) {
	a, _ := bootHandoffPair(t)
	seed(t, a.owner, "alpha", 4)

	table := a.rt.Placement()
	table.Epoch++
	table.Assign["ghost"] = "b"
	if _, _, err := a.src.Handoff("ghost", table); err == nil {
		t.Fatal("handoff of an absent community succeeded")
	}
	if _, _, err := a.src.Handoff("alpha", table); err == nil {
		t.Fatal("handoff with a table that does not assign the community succeeded")
	}
	table.Assign["alpha"] = "a"
	if _, _, err := a.src.Handoff("alpha", table); err == nil {
		t.Fatal("handoff to self succeeded")
	}
	a.owner.Fence("alpha")
	table.Assign["alpha"] = "b"
	if _, _, err := a.src.Handoff("alpha", table); err == nil {
		t.Fatal("handoff of a fenced replica succeeded")
	}
}

// TestHandoffCrashMidway: the receiver answers the offer and then dies
// before acking, so the old owner lifts its fence and keeps serving at the
// old epoch — the availability half of the protocol's failure contract.
func TestHandoffCrashMidway(t *testing.T) {
	lnA := listenTCP(t)
	// z answers the offer, then reads the offer that opens the tail and
	// drops the request: a crash between offer and ack, inside the sender's
	// fenced window.
	var c *service.Community
	var requests atomic.Int32
	offered := make(chan wire.Kind, 2)
	fencedAtCrash := make(chan bool, 1)
	z := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, _, _ := wire.ReadFrame(r.Body, nil, wire.MaxFrame)
		offered <- f.Kind
		if requests.Add(1) > 1 {
			fencedAtCrash <- c.Fenced()
			panic(http.ErrAbortHandler)
		}
	}))
	t.Cleanup(z.Close)
	nodes := []service.Node{
		{ID: "a", Addr: "http://" + lnA.Addr().String()},
		{ID: "z", Addr: z.URL},
	}
	a := bootHNode(t, "a", nodes, lnA)

	c = seed(t, a.owner, "alpha", 5)
	before := a.rt.Epoch()
	table := a.rt.Placement()
	table.Epoch++
	table.Assign["alpha"] = "z"
	if _, _, err := a.src.Handoff("alpha", table); err == nil {
		t.Fatal("handoff succeeded against a crashing receiver")
	}
	for i := 0; i < 2; i++ {
		select {
		case kind := <-offered:
			if kind != wire.KindHandoffOffer {
				t.Fatalf("request %d opened with a %v frame, want the offer", i+1, kind)
			}
		default:
			t.Fatalf("the receiver saw %d requests, want the offer and the tail", i)
		}
	}
	if !<-fencedAtCrash {
		t.Fatal("the receiver crashed outside the sender's fenced window")
	}
	if c.Fenced() {
		t.Fatal("old owner left fenced after a failed handoff")
	}
	if a.rt.Epoch() != before {
		t.Fatalf("epoch advanced to %d despite the failed handoff", a.rt.Epoch())
	}
	if _, err := c.Marry(1, 2); err != nil {
		t.Fatalf("old owner refuses writes after a failed handoff: %v", err)
	}
}

// TestHandoffStaleEpochRefused: a receiver already at a higher epoch
// refuses the offer with not_owner and the sender keeps serving.
func TestHandoffStaleEpochRefused(t *testing.T) {
	a, b := bootHandoffPair(t)
	c := seed(t, a.owner, "alpha", 4)

	ahead := b.rt.Placement()
	ahead.Epoch = 10
	if ok, err := b.rt.SetPlacement(ahead); err != nil || !ok {
		t.Fatalf("install ahead table: %v %v", ok, err)
	}

	table := a.rt.Placement()
	table.Epoch++ // 1 — far behind b's 10
	table.Assign["alpha"] = "b"
	_, _, err := a.src.Handoff("alpha", table)
	if err == nil {
		t.Fatal("stale-epoch handoff accepted")
	}
	var se *service.Error
	if !errorAs(err, &se) || se.Code != service.CodeNotOwner {
		t.Fatalf("stale-epoch refusal = %v, want code not_owner", err)
	}
	if c.Fenced() {
		t.Fatal("sender left fenced after a refused handoff")
	}
}

// TestHandoffSupersedesOwnedCopy: an offer whose table supersedes the
// receiver's replaces a copy the receiver owns unfenced, and the receiver
// ends up serving the offered state — the follower's rule never to
// overwrite an owned copy must not reach a handoff.
func TestHandoffSupersedesOwnedCopy(t *testing.T) {
	a, b := bootHandoffPair(t)
	seed(t, a.owner, "alpha", 6)
	want := windowJSON(t, a.owner, "alpha")
	if _, err := b.owner.Create("alpha", 3, [][2]int{{0, 1}}, ""); err != nil {
		t.Fatal(err)
	}
	if windowJSON(t, b.owner, "alpha") == want {
		t.Fatal("b's own copy answers like the offered state; the test needs them to differ")
	}

	table := a.rt.Placement()
	table.Epoch++
	table.Assign["alpha"] = "b"
	if _, _, err := a.src.Handoff("alpha", table); err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	bc, ok := b.owner.Get("alpha")
	if !ok || bc.Fenced() {
		t.Fatal("b does not own alpha after the handoff")
	}
	if got := windowJSON(t, b.owner, "alpha"); got != want {
		t.Fatalf("b serves its own copy, not the offered state:\nwant %s\ngot  %s", want, got)
	}
}

// TestHandoffUndecodableTailRefused: a tail record the receiver cannot
// decode fails the handoff before the cut, so no ack is sent, the sender
// unfences and keeps serving at the old epoch, and the receiver keeps at
// most a fenced replica.
func TestHandoffUndecodableTailRefused(t *testing.T) {
	lnA, lnB := listenTCP(t), listenTCP(t)
	nodes := []service.Node{
		{ID: "a", Addr: "http://" + lnA.Addr().String()},
		{ID: "b", Addr: "http://" + lnB.Addr().String()},
	}
	a := bootHNode(t, "a", nodes, lnA)
	b := bootHNode(t, "b", nodes, listenTCP(t))
	c := seed(t, a.owner, "alpha", 6)

	// b's stream route is served through a hook that runs once a has
	// exported alpha and before it fences: a write lands in the tail, and
	// its ring record is garbled.
	var once sync.Once
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() {
			if _, err := c.Marry(2, 3); err != nil {
				t.Errorf("marry inside the handoff: %v", err)
			}
			a.src.mu.Lock()
			for i := range a.src.ring {
				if a.src.ring[i].Seq == c.Seq() {
					a.src.ring[i].Data = []byte(`{"op":`)
				}
			}
			a.src.mu.Unlock()
		})
		b.src.ServeHTTP(w, r)
	})}
	go srv.Serve(lnB)
	t.Cleanup(func() { srv.Close() })

	before := a.rt.Epoch()
	table := a.rt.Placement()
	table.Epoch++
	table.Assign["alpha"] = "b"
	if cut, _, err := a.src.Handoff("alpha", table); err == nil {
		t.Fatalf("handoff with an undecodable tail record was acked at cut %d", cut)
	}
	if c.Fenced() {
		t.Fatal("sender left fenced after a refused handoff")
	}
	if a.rt.Epoch() != before || b.rt.Epoch() != before {
		t.Fatalf("epochs moved: a=%d b=%d, want %d", a.rt.Epoch(), b.rt.Epoch(), before)
	}
	if bc, ok := b.owner.Get("alpha"); ok && !bc.Fenced() {
		t.Fatal("receiver took ownership without the tail")
	}
	if _, err := c.Marry(1, 2); err != nil {
		t.Fatalf("sender refuses writes after a refused handoff: %v", err)
	}
}

// TestHandoffTailWithoutOfferRefused: a tail request whose offer never
// installed a replica here is refused with conflict, and the receiver
// neither takes the community nor installs the offered table; acking it
// would flip the sender's writes to a node that holds nothing.
func TestHandoffTailWithoutOfferRefused(t *testing.T) {
	a, b := bootHandoffPair(t)
	table := a.rt.Placement()
	table.Epoch++
	table.Assign["alpha"] = "b"
	tableJSON, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := table.Addr("b")
	tail := wire.AppendHeartbeat(wire.AppendHandoffOffer(nil, table.Epoch, "alpha", tableJSON, true), 5)
	_, err = request(context.Background(), http.MethodPost, addr, "", tail)
	var se *service.Error
	if !errorAs(err, &se) || se.Code != service.CodeConflict {
		t.Fatalf("a tail with no offer before it = %v, want the conflict envelope", err)
	}
	if _, ok := b.owner.Get("alpha"); ok || b.rt.Epoch() != 0 {
		t.Fatalf("b holds alpha (%v) or moved to epoch %d on a tail alone", ok, b.rt.Epoch())
	}
}

// TestDoubleSelfPromotionConverges: two replicas of a dead owner's
// community each elect themselves (neither can reach the other's status),
// publishing competing tables at the same epoch. The loser takes a write
// meanwhile. Once the tables cross, both nodes converge on the fingerprint
// winner and the loser refences — exactly one owner survives — and the
// winner's state, offered to the loser, replaces the loser's diverged
// copy: the two same-epoch sequence spaces order as the tables do.
func TestDoubleSelfPromotionConverges(t *testing.T) { doubleSelfPromotion(t, false) }

// TestDoubleSelfPromotionTableOrdersSpaces is TestDoubleSelfPromotionConverges
// where c also holds an orphan b lacks, which sorts before x: c's table, the
// higher node id's, wins, so its space must order ahead of b's although
// node ids order the other way.
func TestDoubleSelfPromotionTableOrdersSpaces(t *testing.T) { doubleSelfPromotion(t, true) }

// doubleSelfPromotion runs the double self-promotion of x, with an orphan
// only c holds when orphan is set.
func doubleSelfPromotion(t *testing.T, orphan bool) {
	nodes := []service.Node{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	mk := func(id string) (*service.Owner, *service.Router) {
		owner := service.New(service.Opts{})
		rt, err := service.NewRouter(service.RouterOpts{Self: id, Nodes: nodes})
		if err != nil {
			t.Fatalf("NewRouter(%s): %v", id, err)
		}
		// The handler registration wires the fence-reconciliation watcher —
		// the same path daemons run.
		service.NewHandler(service.HandlerOpts{Owner: owner, Router: rt})
		return owner, rt
	}
	ownerB, rtB := mk("b")
	ownerC, rtC := mk("c")

	// Both replicas hold x, fenced, at the same sequence; the initial table
	// assigns it to the (dead) node a.
	base := service.Placement{Epoch: 1, Nodes: nodes, Assign: map[string]string{"x": "a"}}
	for _, rt := range []*service.Router{rtB, rtC} {
		if ok, err := rt.SetPlacement(base); err != nil || !ok {
			t.Fatalf("install base table: %v %v", ok, err)
		}
	}
	for _, o := range []*service.Owner{ownerB, ownerC} {
		if _, err := o.Create("x", 4, nil, ""); err != nil {
			t.Fatalf("create replica: %v", err)
		}
		o.Fence("x")
	}
	if orphan { // a ring-placed community of a's, so only c's table assigns it
		id := ""
		for i := 0; id == ""; i++ {
			if cand := fmt.Sprintf("a%d", i); rtC.Place(cand) == "a" {
				id = cand
			}
		}
		if _, err := ownerC.Create(id, 4, nil, ""); err != nil {
			t.Fatalf("create orphan: %v", err)
		}
		ownerC.Fence(id)
	}

	detB, err := NewDetector(DetectorOpts{Router: rtB, Owner: ownerB, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	detC, err := NewDetector(DetectorOpts{Router: rtC, Owner: ownerC, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}

	// Partitioned elections: peers have no addresses, so each node's
	// failover sees only itself and elects itself.
	ctx := context.Background()
	detB.failover(ctx, "a")
	detC.failover(ctx, "a")
	pb, pc := rtB.Placement(), rtC.Placement()
	if pb.Epoch != 2 || pc.Epoch != 2 {
		t.Fatalf("election epochs: b=%d c=%d, want 2 and 2", pb.Epoch, pc.Epoch)
	}
	if pb.Assign["x"] != "b" || pc.Assign["x"] != "c" {
		t.Fatalf("self-elections: b table assigns %q, c table assigns %q", pb.Assign["x"], pc.Assign["x"])
	}
	cb, _ := ownerB.Get("x")
	cc, _ := ownerC.Get("x")
	if cb.Fenced() || cc.Fenced() {
		t.Fatal("self-promotion did not unfence the local replica")
	}
	lost := ownerC // the owner of the table that does not win
	if pc.Supersedes(pb) {
		lost = ownerB
	}
	lc, _ := lost.Get("x")
	if _, err := lc.Marry(1, 2); err != nil {
		t.Fatalf("write on the loser before the tables cross: %v", err)
	}

	// The partition heals: the competing tables cross (gossip), and the
	// fingerprint order picks one winner on both nodes.
	rtB.SetPlacement(pc)
	rtC.SetPlacement(pb)
	fb, fc := rtB.Placement(), rtC.Placement()
	if fb.Fingerprint() != fc.Fingerprint() || fb.Epoch != fc.Epoch {
		t.Fatalf("tables did not converge:\nb: epoch %d %s\nc: epoch %d %s", fb.Epoch, fb.Fingerprint(), fc.Epoch, fc.Fingerprint())
	}
	winner := fb.Assign["x"]
	if winner != "b" && winner != "c" {
		t.Fatalf("converged winner %q is neither contender", winner)
	}
	if winner == "b" {
		if cb.Fenced() || !cc.Fenced() {
			t.Fatalf("winner b: fenced(b)=%v fenced(c)=%v, want false/true", cb.Fenced(), cc.Fenced())
		}
	} else {
		if cc.Fenced() || !cb.Fenced() {
			t.Fatalf("winner c: fenced(b)=%v fenced(c)=%v, want true/false", cb.Fenced(), cc.Fenced())
		}
	}

	if orphan && winner != "c" {
		t.Fatalf("converged winner %q, want c, whose table assigns the orphan", winner)
	}

	won := map[string]*service.Owner{"b": ownerB, "c": ownerC}[winner]
	wc, _ := won.Get("x")
	if lost == won {
		t.Fatalf("the write went to the winner %s", winner)
	}
	if !service.Ahead(wc.Space(), wc.Seq(), lc.Space(), lc.Seq()) {
		t.Fatalf("the winner's copy (%+v at %d) is not ahead of the loser's (%+v at %d): an election could rank the loser first",
			wc.Space(), wc.Seq(), lc.Space(), lc.Seq())
	}
	if _, err := lost.InstallReplica(wc.Export()); err != nil {
		t.Fatalf("offer the winner's state to the loser: %v", err)
	}
	if got, want := windowJSON(t, lost, "x"), windowJSON(t, won, "x"); got != want {
		t.Fatalf("the loser kept its diverged copy over the winner's state:\nloser  %s\nwinner %s", got, want)
	}
	if now, _ := lost.Get("x"); !now.Fenced() || now.Space() != wc.Space() {
		t.Fatalf("the loser's copy: fenced %v in space %+v, want fenced in the winner's %+v", now.Fenced(), now.Space(), wc.Space())
	}
}

// TestZeroCommunityJoinKeepsOwnership: a membership-grow table with every
// community pinned (the rebalancer's stage-1 shape) moves nothing — and a
// table that does place the community elsewhere makes the old owner fail
// closed rather than split-brain.
func TestZeroCommunityJoinKeepsOwnership(t *testing.T) {
	nodes := []service.Node{{ID: "a"}, {ID: "b"}}
	owner := service.New(service.Opts{})
	rt, err := service.NewRouter(service.RouterOpts{Self: "a", Nodes: nodes})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	service.NewHandler(service.HandlerOpts{Owner: owner, Router: rt})
	if _, err := owner.Create("x", 4, nil, ""); err != nil {
		t.Fatalf("create: %v", err)
	}
	c, _ := owner.Get("x")

	// The joiner arrives with x pinned in place: no flip, no fence.
	grown := rt.Placement()
	grown.Epoch++
	grown.Nodes = append(grown.Nodes, service.Node{ID: "d"})
	grown.Assign["x"] = "a"
	if ok, err := rt.SetPlacement(grown); err != nil || !ok {
		t.Fatalf("install grown table: %v %v", ok, err)
	}
	if c.Fenced() {
		t.Fatal("pinned join fenced the community")
	}
	if rt.Place("x") != "a" {
		t.Fatalf("pinned join moved placement to %s", rt.Place("x"))
	}

	// A table placing x on the joiner fences the old owner (fail closed);
	// ring- or assignment-derived placement never auto-promotes here.
	moved := rt.Placement()
	moved.Epoch++
	moved.Assign["x"] = "d"
	if ok, err := rt.SetPlacement(moved); err != nil || !ok {
		t.Fatalf("install moved table: %v %v", ok, err)
	}
	if !c.Fenced() {
		t.Fatal("old owner kept serving a community the table places elsewhere")
	}
}
