package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestRebalanceFailsClosed: a member whose /v1/status refuses must stop a
// rebalance before any table is published. Read as owning nothing, its
// communities would be placed on the joining node by the ring, with no
// handoff to carry their data there.
func TestRebalanceFailsClosed(t *testing.T) {
	lnA, lnB := listenTCP(t), listenTCP(t)
	nodes := []service.Node{
		{ID: "a", Addr: "http://" + lnA.Addr().String()},
		{ID: "b", Addr: "http://" + lnB.Addr().String()},
	}
	target := append(append([]service.Node(nil), nodes...), service.Node{ID: "c"})

	var offers atomic.Int64
	boot := func(ln net.Listener, id string, draining bool) (*service.Owner, *service.Router) {
		owner := service.New(service.Opts{})
		rt, err := service.NewRouter(service.RouterOpts{Self: id, Nodes: nodes})
		if err != nil {
			t.Fatalf("NewRouter(%s): %v", id, err)
		}
		h := service.NewHandler(service.HandlerOpts{Owner: owner, Router: rt})
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/placement" {
				offers.Add(1)
			}
			if draining && r.URL.Path == "/v1/status" {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"code":"unavailable","message":"node b is draining"}`)
				return
			}
			h.ServeHTTP(w, r)
		})}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return owner, rt
	}
	_, rtA := boot(lnA, "a", false)
	ownerB, rtB := boot(lnB, "b", true)

	// b owns a community that the grown ring places on the joiner c.
	before, err := service.RouterFor(service.Placement{Nodes: nodes})
	if err != nil {
		t.Fatalf("RouterFor: %v", err)
	}
	after, err := service.RouterFor(service.Placement{Nodes: target})
	if err != nil {
		t.Fatalf("RouterFor: %v", err)
	}
	id := ""
	for i := 0; id == ""; i++ {
		if k := fmt.Sprintf("comm-%d", i); before.Place(k) == "b" && after.Place(k) == "c" {
			id = k
		}
	}
	c, err := ownerB.Create(id, 4, nil, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	_, _, err = Rebalance(context.Background(), nodes[0].Addr, target, nil)
	var ae *service.Error
	if !errors.As(err, &ae) || ae.Code != service.CodeUnavailable {
		t.Fatalf("Rebalance with a refusing member = %v, want its unavailable envelope", err)
	}
	if n := offers.Load(); n != 0 || rtA.Epoch() != 0 || rtB.Epoch() != 0 {
		t.Fatalf("published %d tables (epochs a=%d b=%d), want none", n, rtA.Epoch(), rtB.Epoch())
	}
	if c.Fenced() {
		t.Fatalf("%s lost its only owner", id)
	}
}

// bootAPINode boots a node as holidayd serves one: the API and, beside it,
// the stream route on one listener, with handoffs run by Handoff.
func bootAPINode(t *testing.T, id string, nodes []service.Node, ln net.Listener) *hNode {
	t.Helper()
	owner := service.New(service.Opts{})
	rt, err := service.NewRouter(service.RouterOpts{Self: id, Nodes: nodes})
	if err != nil {
		t.Fatalf("NewRouter(%s): %v", id, err)
	}
	src, err := NewSource(SourceOpts{Owner: owner, Router: rt, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewSource(%s): %v", id, err)
	}
	owner.SetJournal(src)
	mux := http.NewServeMux()
	mux.Handle(StreamPath, src)
	mux.Handle("/", service.NewHandler(service.HandlerOpts{Owner: owner, Router: rt,
		Handoff: src.Handoff}))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	t.Cleanup(func() {
		src.Close()
		srv.Close()
	})
	return &hNode{owner: owner, src: src, rt: rt, srv: srv}
}

// TestMoveCommunity: the rotation primitive hands one community from its
// owner to another member over the nodes' APIs. The receiver serves it
// unfenced with the same answers, the sender keeps a fenced copy, and
// every member, the one not party to the move included, has installed the
// published table before MoveCommunity returns.
func TestMoveCommunity(t *testing.T) {
	lns := []net.Listener{listenTCP(t), listenTCP(t), listenTCP(t)}
	var nodes []service.Node
	for i, id := range []string{"a", "b", "c"} {
		nodes = append(nodes, service.Node{ID: id, Addr: "http://" + lns[i].Addr().String()})
	}
	var hs []*hNode
	for i, n := range nodes {
		hs = append(hs, bootAPINode(t, n.ID, nodes, lns[i]))
	}
	a, b := hs[0], hs[1]
	id := ""
	for i := 0; id == ""; i++ {
		if k := fmt.Sprintf("comm-%d", i); a.rt.Place(k) == "a" {
			id = k
		}
	}
	c := seed(t, a.owner, id, 6)
	want := windowJSON(t, a.owner, id)

	mv, err := MoveCommunity(context.Background(), nodes[0].Addr, id, "b")
	if err != nil {
		t.Fatalf("MoveCommunity: %v", err)
	}
	if mv.Community != id || mv.From != "a" || mv.To != "b" || mv.CutSeq != c.Seq() || mv.Pause <= 0 {
		t.Fatalf("move = %+v, want %s a→b at cut %d with a pause", mv, id, c.Seq())
	}
	if bc, ok := b.owner.Get(id); !ok || bc.Fenced() {
		t.Fatalf("b does not own %s after the move", id)
	}
	if got := windowJSON(t, b.owner, id); got != want {
		t.Fatalf("window diverged across the move:\nold %s\nnew %s", want, got)
	}
	if !c.Fenced() {
		t.Fatal("a's copy is not fenced after the move")
	}
	for i, h := range hs {
		if h.rt.Epoch() != 1 || h.rt.Place(id) != "b" {
			t.Errorf("node %s: epoch %d places %s on %q, want epoch 1 and b", nodes[i].ID, h.rt.Epoch(), id, h.rt.Place(id))
		}
	}
}

// TestRebalanceJoin: node b joins a one-node cluster. Rebalance moves by
// live handoff every community the two-node ring places on b, and only
// those; both routers end at the final epoch, and each moved community
// answers on b as it did on a.
func TestRebalanceJoin(t *testing.T) {
	lnA, lnB := listenTCP(t), listenTCP(t)
	target := []service.Node{
		{ID: "a", Addr: "http://" + lnA.Addr().String()},
		{ID: "b", Addr: "http://" + lnB.Addr().String()},
	}
	a := bootAPINode(t, "a", target[:1], lnA)
	b := bootAPINode(t, "b", target, lnB)
	ring, err := service.RouterFor(service.Placement{Nodes: target})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // community → its window on a, for those b takes
	var kept []string
	for i := 0; len(want) < 3 || len(kept) < 2; i++ {
		id := fmt.Sprintf("comm-%d", i)
		seed(t, a.owner, id, 6)
		if ring.Place(id) == "b" {
			want[id] = windowJSON(t, a.owner, id)
		} else {
			kept = append(kept, id)
		}
	}

	moves, final, err := Rebalance(context.Background(), target[0].Addr, target, t.Logf)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if len(moves) != len(want) {
		t.Fatalf("%d moves, want %d: %+v", len(moves), len(want), moves)
	}
	for _, mv := range moves {
		if _, ok := want[mv.Community]; !ok || mv.From != "a" || mv.To != "b" {
			t.Fatalf("move %+v, want one of %v from a to b", mv, want)
		}
	}
	if a.rt.Epoch() != final.Epoch || b.rt.Epoch() != final.Epoch {
		t.Fatalf("epochs a=%d b=%d, want both at the final %d", a.rt.Epoch(), b.rt.Epoch(), final.Epoch)
	}
	for id, w := range want {
		bc, ok := b.owner.Get(id)
		if !ok || bc.Fenced() {
			t.Fatalf("b does not own %s after the rebalance", id)
		}
		if got := windowJSON(t, b.owner, id); got != w {
			t.Fatalf("%s answers differently on its new owner:\nold %s\nnew %s", id, w, got)
		}
		if ac, _ := a.owner.Get(id); !ac.Fenced() {
			t.Fatalf("a still owns %s, which moved to b", id)
		}
	}
	for _, id := range kept {
		if ac, _ := a.owner.Get(id); ac.Fenced() || final.Assign[id] != "a" {
			t.Fatalf("%s, which the ring keeps on a, was fenced there or reassigned to %q", id, final.Assign[id])
		}
	}
}
