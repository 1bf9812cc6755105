package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/wire"
)

// largeGraph is powerlaw:n=500000,m=3, the head of benchkit's mega
// scenario. Its state encodes to about 23 MB and its create record to about
// 22 MB, both past wire.MaxFrame. It is built once for the tests below.
var largeGraph = sync.OnceValues(func() (*graph.Graph, error) {
	return graph.ParseSpec("powerlaw:n=500000,m=3", 1)
})

// createLarge creates the large community "mega" on o and checks that its
// state is past wire.MaxFrame.
func createLarge(t *testing.T, o *service.Owner) *service.Community {
	t.Helper()
	if raceEnabled {
		t.Skip("moving a 500,000-family community takes too long under the race detector")
	}
	g, err := largeGraph()
	if err != nil {
		t.Fatal(err)
	}
	c, err := o.CreateFromGraph("mega", g, "")
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := json.Marshal(c.Export()); len(st) <= wire.MaxFrame {
		t.Fatalf("the state encodes to %d bytes, not past wire.MaxFrame", len(st))
	}
	return c
}

// headWindow is a community's first holidays as JSON, small enough to
// compare for a community of any size.
func headWindow(t *testing.T, o *service.Owner, id string) string {
	t.Helper()
	c, ok := o.Get(id)
	if !ok {
		t.Fatalf("community %q missing", id)
	}
	w, err := c.Window(1, 8)
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	b, _ := json.Marshal(w)
	return string(b)
}

// TestFollowLargeCommunity: a follower installs a community whose create
// record and state pass wire.MaxFrame, and a small community created after
// it, both from a ring that covers its whole history (it replays the
// create record) and from a one-record ring (it installs the state).
func TestFollowLargeCommunity(t *testing.T) {
	for _, ring := range []int{DefaultRingSize, 1} {
		t.Run(fmt.Sprintf("ring=%d", ring), func(t *testing.T) {
			owner := service.New(service.Opts{})
			src, err := NewSource(SourceOpts{Owner: owner, RingSize: ring, Heartbeat: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			owner.SetJournal(src)
			mega := createLarge(t, owner)
			small := seed(t, owner, "small", 6)
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

			// A 23 MB state takes seconds to encode, send and install.
			waitWithin(t, 30*time.Second, "both communities on the follower", func() bool {
				sc, ok := replica.Get("small")
				mc, mok := replica.Get("mega")
				return ok && mok && sc.Seq() == small.Seq() && mc.Seq() == mega.Seq()
			})
			assertMirror(t, owner, replica, "small")
			if rc, _ := replica.Get("mega"); !rc.Fenced() {
				t.Fatal("the follower's copy of mega is not fenced")
			}
			if got, want := headWindow(t, replica, "mega"), headWindow(t, owner, "mega"); got != want {
				t.Fatalf("the follower's mega answers differently:\nowner    %s\nfollower %s", want, got)
			}
		})
	}
}

// TestHandoffLargeCommunity hands off a community whose state, and so its
// offer, passes wire.MaxFrame: the new owner takes it over at the old
// owner's seq, answering alike.
func TestHandoffLargeCommunity(t *testing.T) {
	a, b := bootHandoffPair(t)
	mega := createLarge(t, a.owner)
	want := headWindow(t, a.owner, "mega")

	table := a.rt.Placement()
	table.Epoch++
	table.Assign["mega"] = "b"
	cut, _, err := a.src.Handoff("mega", table)
	if err != nil {
		t.Fatalf("Handoff: %v", err)
	}
	if cut != mega.Seq() {
		t.Fatalf("cut seq = %d, want %d", cut, mega.Seq())
	}
	bc, ok := b.owner.Get("mega")
	if !ok || bc.Fenced() {
		t.Fatal("b does not own mega after the handoff")
	}
	if got := headWindow(t, b.owner, "mega"); got != want {
		t.Fatalf("mega answers differently after the handoff:\nold %s\nnew %s", want, got)
	}
}
