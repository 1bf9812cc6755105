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

	_, _, err = (&Rebalancer{}).Rebalance(context.Background(), nodes[0].Addr, target)
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
