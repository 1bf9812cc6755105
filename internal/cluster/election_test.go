package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestDetectorFailsOverOnlyTheDead: node b follows owner a and runs the
// failure detector. While a's stream is gone but a still answers /healthz,
// b probes it and leaves it alone; once a's listener is gone too, b elects
// itself for a's community, publishing the next epoch with the community
// assigned to b and unfenced there, answering as a did.
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
	var probes atomic.Int32
	api := service.NewHandler(service.HandlerOpts{Owner: ownerA, Router: rtA})
	mux := http.NewServeMux()
	mux.Handle(StreamPath, srcA)
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			probes.Add(1)
		}
		api.ServeHTTP(w, r)
	}))
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
	fol, err := NewFollower(FollowerOpts{Owner: ownerB, Addr: nodes[0].Addr, Backoff: 50 * time.Millisecond,
		Accept: func(id string) bool { return rtB.Place(id) == "a" }})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 150 * time.Millisecond
	det, err := NewDetector(DetectorOpts{Router: rtB, Owner: ownerB, Followers: map[string]*Follower{"a": fol},
		Deadline: deadline, Logf: t.Logf})
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
		return ok && rc.Seq() == c.Seq() && !fol.LastHeartbeat().IsZero()
	})

	// a's stream goes, its API stays: heartbeats stop, the probe answers.
	srcA.Close()
	before := probes.Load()
	waitFor(t, "b to probe a twice", func() bool { return probes.Load() >= before+2 })
	if e := rtB.Epoch(); e != 0 {
		t.Fatalf("b failed over a node that answers /healthz: epoch %d", e)
	}
	if rc, _ := ownerB.Get(id); !rc.Fenced() {
		t.Fatalf("b unfenced %s while its owner is alive", id)
	}

	// a's listener goes: the probe fails and b takes over.
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
