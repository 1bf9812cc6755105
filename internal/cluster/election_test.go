package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestDetectorFailsOverOnlyTheDead: node b follows owner a and runs the
// failure detector. While a's stream is gone but a still answers b's
// placement pulls, b leaves it alone; once a's listener is gone too, b
// elects itself for a's community, publishing the next epoch with the
// community assigned to b and unfenced there, answering as a did.
func TestDetectorFailsOverOnlyTheDead(t *testing.T) {
	lnA := listenTCP(t)
	nodes := []service.Node{
		{ID: "a", Addr: "http://" + lnA.Addr().String()},
		{ID: "b", Addr: "http://127.0.0.1:1"},
	}
	ownerA := service.New(service.Opts{})
	rtA, err := service.NewRouter(service.RouterOpts{Self: "a", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	srcA, err := NewSource(SourceOpts{Owner: ownerA, Router: rtA, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ownerA.SetJournal(srcA)
	var pulls atomic.Int32
	mux := http.NewServeMux()
	mux.Handle(StreamPath, srcA)
	mux.Handle("/", countPulls(service.NewHandler(service.HandlerOpts{Owner: ownerA, Router: rtA}), &pulls))
	srvA := &http.Server{Handler: mux}
	go srvA.Serve(lnA)
	t.Cleanup(func() {
		srcA.Close()
		srvA.Close()
	})

	ownerB := service.New(service.Opts{})
	rtB, err := service.NewRouter(service.RouterOpts{Self: "b", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	// The handler registration wires the fence-reconciliation watcher that
	// unfences what an election assigns here.
	service.NewHandler(service.HandlerOpts{Owner: ownerB, Router: rtB})
	fol, err := NewFollower(FollowerOpts{Owner: ownerB, Addr: nodes[0].Addr, Backoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 150 * time.Millisecond
	det, err := NewDetector(DetectorOpts{Router: rtB, Owner: ownerB, Follows: nodes[:1], Deadline: deadline, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	id := ""
	for i := 0; id == ""; i++ {
		if k := fmt.Sprintf("comm-%d", i); rtA.Place(k) == "a" {
			id = k
		}
	}
	c := seed(t, ownerA, id, 6)
	want := windowJSON(t, ownerA, id)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, run := range []func(context.Context){fol.Run, det.Run} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	waitFor(t, "b to follow a", func() bool {
		rc, ok := ownerB.Get(id)
		return ok && rc.Seq() == c.Seq() && pulls.Load() > 0
	})

	// a's stream goes, its API stays: heartbeats stop, the pulls answer.
	// Seven pulls at one per third of the deadline span two deadlines.
	srcA.Close()
	before := pulls.Load()
	waitFor(t, "b to pull a's table for two deadlines", func() bool { return pulls.Load() >= before+7 })
	if e := rtB.Epoch(); e != 0 {
		t.Fatalf("b failed over a node that answers its pulls: epoch %d", e)
	}
	if rc, _ := ownerB.Get(id); !rc.Fenced() {
		t.Fatalf("b unfenced %s while its owner is alive", id)
	}

	// a's listener goes: the pulls fail and b takes over.
	srvA.Close()
	waitFor(t, "b to fail a over", func() bool { return rtB.Epoch() == 1 })
	if got := rtB.Placement().Assign[id]; got != "b" {
		t.Fatalf("the election assigns %s to %q, want b", id, got)
	}
	rc, ok := ownerB.Get(id)
	if !ok || rc.Fenced() {
		t.Fatalf("b does not own %s after the election", id)
	}
	if got := windowJSON(t, ownerB, id); got != want {
		t.Fatalf("b answers %s unlike its dead owner:\nowner %s\nb     %s", id, want, got)
	}
}

// TestDetectorSparesUnfedCopies: a moves a community to b by handoff and
// keeps a fenced copy that no stream feeds, since nothing follows b. b
// adds a family, then goes silent. a fails over only the owners it follows,
// so it leaves b's community alone rather than unfence a copy that lacks
// the write b acknowledged.
func TestDetectorSparesUnfedCopies(t *testing.T) {
	const deadline = 150 * time.Millisecond
	lns := []net.Listener{listenTCP(t), listenTCP(t), listenTCP(t)}
	var nodes []service.Node
	for i, id := range []string{"a", "b", "c"} {
		nodes = append(nodes, service.Node{ID: id, Addr: "http://" + lns[i].Addr().String()})
	}
	a, b := bootAPINode(t, "a", nodes, lns[0]), bootAPINode(t, "b", nodes, lns[1])
	// c answers a's pulls, which time the silence below.
	rtC, err := service.NewRouter(service.RouterOpts{Self: "c", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	var pulls atomic.Int32
	srvC := &http.Server{Handler: countPulls(service.NewHandler(service.HandlerOpts{Owner: service.New(service.Opts{}), Router: rtC}), &pulls)}
	go srvC.Serve(lns[2])
	t.Cleanup(func() { srvC.Close() })

	id := ""
	for i := 0; id == ""; i++ {
		if k := fmt.Sprintf("comm-%d", i); a.rt.Place(k) == "a" {
			id = k
		}
	}
	stale := seed(t, a.owner, id, 6)
	if _, err := MoveCommunity(context.Background(), nodes[0].Addr, id, "b"); err != nil {
		t.Fatalf("MoveCommunity: %v", err)
	}
	bc, _ := b.owner.Get(id)
	if _, err := bc.AddFamily(); err != nil {
		t.Fatalf("write on b: %v", err)
	}
	if stale.Families() == bc.Families() {
		t.Fatalf("a's copy already holds the family b added")
	}
	b.srv.Close()

	runDetector(t, a.rt, a.owner, deadline)
	waitFor(t, "a to pull c's table for two deadlines", func() bool { return pulls.Load() >= 7 })
	if e, got := a.rt.Epoch(), a.rt.Place(id); e != 1 || got != "b" {
		t.Fatalf("a is at epoch %d and places %s on %q, want epoch 1 and b", e, id, got)
	}
	if !stale.Fenced() {
		t.Fatalf("a unfenced its copy of %s, which lacks b's write", id)
	}
}

// TestDetectorBlamesOnlyTheSilent: b follows a and s. Each of b's gossip
// rounds pulls a, which answers at once, then s, whose pulls fail only
// after three of b's deadlines. b fails s over and never a, although every round ends long
// after a's answer: a answered in each round, and silence is measured up
// to the start of the round that found it.
func TestDetectorBlamesOnlyTheSilent(t *testing.T) {
	const deadline = 100 * time.Millisecond
	lnA, lnS := listenTCP(t), listenTCP(t)
	nodes := []service.Node{
		{ID: "a", Addr: "http://" + lnA.Addr().String()},
		{ID: "b", Addr: "http://127.0.0.1:1"},
		{ID: "s", Addr: "http://" + lnS.Addr().String()},
	}
	rtA, err := service.NewRouter(service.RouterOpts{Self: "a", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	var pulls atomic.Int32
	srvA := &http.Server{Handler: countPulls(service.NewHandler(service.HandlerOpts{Owner: service.New(service.Opts{}), Router: rtA}), &pulls)}
	srvS := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(3 * deadline):
		case <-r.Context().Done():
		}
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	})}
	go srvA.Serve(lnA)
	go srvS.Serve(lnS)
	t.Cleanup(func() {
		srvA.Close()
		srvS.Close()
	})
	owner, rt, held := bootWatcher(t, nodes, "a", "s")
	runDetector(t, rt, owner, deadline, nodes[0], nodes[2])

	waitFor(t, "b to fail s over", func() bool { return rt.Placement().Assign[held["s"]] == "b" })
	before := pulls.Load()
	waitFor(t, "three more rounds", func() bool { return pulls.Load() >= before+3 })
	if got := rt.Place(held["a"]); got != "a" {
		t.Fatalf("b placed %s, whose owner a answers every pull, on %s", held["a"], got)
	}
	if c, _ := owner.Get(held["a"]); !c.Fenced() {
		t.Fatalf("b unfenced %s while its owner a is alive", held["a"])
	}
}

// TestGossipPullsConcurrently: one Gossip round against two peers that
// each hold a pull for 300ms and then refuse it, and one that answers at
// once, takes one slow pull's time, not two, and stamps only the peer that
// answered. Pulled one at a time, the round would take 600ms or more.
func TestGossipPullsConcurrently(t *testing.T) {
	const hold = 300 * time.Millisecond
	lns := []net.Listener{listenTCP(t), listenTCP(t), listenTCP(t)}
	nodes := []service.Node{{ID: "b", Addr: "http://127.0.0.1:1"}}
	for i, id := range []string{"a", "s1", "s2"} {
		nodes = append(nodes, service.Node{ID: id, Addr: "http://" + lns[i].Addr().String()})
	}
	rtA, err := service.NewRouter(service.RouterOpts{Self: "a", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	holdThenRefuse := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(hold)
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	})
	for i, h := range []http.Handler{service.NewHandler(service.HandlerOpts{Owner: service.New(service.Opts{}), Router: rtA}),
		holdThenRefuse, holdThenRefuse} {
		srv := &http.Server{Handler: h}
		go srv.Serve(lns[i])
		t.Cleanup(func() { srv.Close() })
	}
	rt, err := service.NewRouter(service.RouterOpts{Self: "b", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(DetectorOpts{Router: rt, Owner: service.New(service.Opts{}), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	det.Gossip(context.Background())
	if took := time.Since(start); took >= hold*3/2 {
		t.Fatalf("a gossip round with two peers holding their pulls for %v took %v", hold, took)
	}
	if _, ok := det.seen["a"]; !ok || len(det.seen) != 1 {
		t.Fatalf("the round stamped %v, want only a", det.seen)
	}
}

// countPulls serves h, counting the placement pulls it has answered.
func countPulls(h http.Handler, pulls *atomic.Int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.Method == http.MethodGet && r.URL.Path == "/v1/placement" {
			pulls.Add(1)
		}
	})
}

// bootWatcher returns node b of nodes, holding for each id in of a fenced
// copy of a community the ring places on that node, and the community it
// holds for each.
func bootWatcher(t *testing.T, nodes []service.Node, of ...string) (*service.Owner, *service.Router, map[string]string) {
	t.Helper()
	owner := service.New(service.Opts{})
	rt, err := service.NewRouter(service.RouterOpts{Self: "b", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	// The handler registration wires the fence-reconciliation watcher that
	// unfences what an election assigns here.
	service.NewHandler(service.HandlerOpts{Owner: owner, Router: rt})
	held := map[string]string{}
	for _, node := range of {
		for i := 0; held[node] == ""; i++ {
			if id := fmt.Sprintf("comm-%d", i); rt.Place(id) == node {
				held[node] = id
			}
		}
		if _, err := owner.Create(held[node], 4, nil, ""); err != nil {
			t.Fatal(err)
		}
		owner.Fence(held[node])
	}
	return owner, rt, held
}

// runDetector runs a detector over rt and owner, following follows, until
// the test ends.
func runDetector(t *testing.T, rt *service.Router, owner *service.Owner, deadline time.Duration, follows ...service.Node) {
	t.Helper()
	det, err := NewDetector(DetectorOpts{Router: rt, Owner: owner, Follows: follows, Deadline: deadline, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		det.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}
