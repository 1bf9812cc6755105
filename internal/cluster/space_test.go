package cluster

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// busy logs n writes on a community of its own on o, so o's journal runs
// far ahead of any other node's.
func busy(t *testing.T, o *service.Owner, n int) {
	t.Helper()
	c, err := o.Create("busy", 4, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			_, err = c.Marry(0, 1)
		} else {
			_, _, err = c.Divorce(0, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// move hands community id from node from to the node to, one epoch past
// from's table.
func move(t *testing.T, from, to *hNode, id string) {
	t.Helper()
	table := from.rt.Placement()
	table.Epoch++
	table.Assign[id] = to.rt.Self()
	if _, _, err := from.src.Handoff(id, table); err != nil {
		t.Fatalf("Handoff %s → %s: %v", from.rt.Self(), to.rt.Self(), err)
	}
}

// writeOn makes n ≤ 4 effective writes to community id on o, a community
// seed made with 6 families.
func writeOn(t *testing.T, o *service.Owner, id string, n int) {
	t.Helper()
	c, ok := o.Get(id)
	if !ok {
		t.Fatalf("no %s here", id)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Marry(i+1, i+2); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

// TestRoundTripKeepsInterimWrites: a's journal is far ahead of b's. alpha
// moves a → b, b takes four writes in the sequence space its takeover
// started, and alpha moves back b → a. a's fenced copy sits at a higher
// seq than b's, but in an older space, so b's offer replaces it: a ends
// owning alpha with b's writes.
func TestRoundTripKeepsInterimWrites(t *testing.T) {
	a, b := bootHandoffPair(t)
	seed(t, a.owner, "alpha", 6)
	busy(t, a.owner, 100)
	move(t, a, b, "alpha")
	writeOn(t, b.owner, "alpha", 4)
	want := windowJSON(t, b.owner, "alpha")
	bc, _ := b.owner.Get("alpha")
	if ac, _ := a.owner.Get("alpha"); ac.Seq() <= bc.Seq() {
		t.Fatalf("a's copy at seq %d, b's at %d: the test needs a's ahead", ac.Seq(), bc.Seq())
	}

	move(t, b, a, "alpha")
	ac, ok := a.owner.Get("alpha")
	if !ok || ac.Fenced() {
		t.Fatal("a does not own alpha after the round trip")
	}
	if got := windowJSON(t, a.owner, "alpha"); got != want {
		t.Fatalf("a lost b's writes on the round trip:\nb %s\na %s", want, got)
	}
	if sp := ac.Space(); sp != (service.Space{Epoch: a.rt.Epoch(), Node: "a"}) {
		t.Fatalf("a owns alpha in space %+v, want its takeover's at epoch %d", sp, a.rt.Epoch())
	}
}

// TestThirdPartyFollowsMove: c follows a and b, with no filter on either
// stream. alpha moves a → b and b writes to it. b's journal carries the
// takeover, so c reaches b's seq, space and answers for alpha, although
// a's journal, whose seqs c's copy counted in, is far ahead of b's.
func TestThirdPartyFollowsMove(t *testing.T) {
	a, b := bootHandoffPair(t)
	seed(t, a.owner, "alpha", 6)
	busy(t, a.owner, 100)
	c := service.New(service.Opts{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, 2)
	t.Cleanup(func() {
		cancel()
		<-done
		<-done
	})
	for _, n := range []*hNode{a, b} {
		addr, _ := n.rt.Addr(n.rt.Self())
		f, err := NewFollower(FollowerOpts{Owner: c, Addr: addr, Backoff: 50 * time.Millisecond, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			f.Run(ctx)
			done <- struct{}{}
		}()
	}
	ac, _ := a.owner.Get("alpha")
	waitFor(t, "c to follow alpha on a", func() bool {
		cc, ok := c.Get("alpha")
		return ok && cc.Seq() == ac.Seq()
	})

	move(t, a, b, "alpha")
	writeOn(t, b.owner, "alpha", 4)
	bc, _ := b.owner.Get("alpha")
	waitFor(t, "c to reach b's copy of alpha", func() bool {
		cc, ok := c.Get("alpha")
		return ok && cc.Seq() == bc.Seq() && cc.Space() == bc.Space()
	})
	assertMirror(t, b.owner, c, "alpha")
}

// TestDoubleSelfPromotionLoserReplaysWinner: b and c self-promote x at one
// epoch, and c's table wins, an orphan only c holds sorting first. b's
// journal is far ahead of c's, and b takes a write before the tables
// cross. Then b's follower of c replays c's journal from its start, as a
// reconnect the ring still covers does: c's install record replaces b's
// diverged copy, which the fence sync dropped to seq 0 of the zero space,
// and c's takeover record moves it into c's space. So b ends with c's
// seq, space and window, c's later write included, and not with its own
// data under c's space.
func TestDoubleSelfPromotionLoserReplaysWinner(t *testing.T) {
	nodes := []service.Node{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	boot := func(id string) (*service.Owner, *service.Router, *Source) {
		owner := service.New(service.Opts{})
		rt, err := service.NewRouter(service.RouterOpts{Self: id, Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewSource(SourceOpts{Owner: owner})
		if err != nil {
			t.Fatal(err)
		}
		owner.SetJournal(src)
		service.NewHandler(service.HandlerOpts{Owner: owner, Router: rt})
		if ok, err := rt.SetPlacement(service.Placement{Epoch: 1, Nodes: nodes, Assign: map[string]string{"x": "a"}}); err != nil || !ok {
			t.Fatalf("install base table: %v %v", ok, err)
		}
		return owner, rt, src
	}
	ownerB, rtB, _ := boot("b")
	ownerC, rtC, srcC := boot("c")
	busy(t, ownerB, 20)

	// Both hold a's x, and c alone an orphan of a's that sorts before it.
	origin := service.New(service.Opts{})
	orphan := ""
	for i := 0; orphan == ""; i++ {
		if id := fmt.Sprintf("a%d", i); rtC.Place(id) == "a" {
			orphan = id
		}
	}
	for _, id := range []string{"x", orphan} {
		oc, err := origin.Create(id, 6, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		st := oc.Export()
		st.Seq = 5 // its seq in a's journal
		holders := []*service.Owner{ownerC}
		if id == "x" {
			holders = append(holders, ownerB)
		}
		for _, o := range holders {
			if _, err := o.InstallReplica(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range []struct {
		rt    *service.Router
		owner *service.Owner
	}{{rtB, ownerB}, {rtC, ownerC}} {
		d, err := NewDetector(DetectorOpts{Router: n.rt, Owner: n.owner})
		if err != nil {
			t.Fatal(err)
		}
		d.failover(context.Background(), "a")
	}
	writeOn(t, ownerB, "x", 1) // the loser's write
	pb, pc := rtB.Placement(), rtC.Placement()
	rtB.SetPlacement(pc)
	rtC.SetPlacement(pb)
	if w := rtB.Placement().Assign["x"]; w != "c" {
		t.Fatalf("the tables converged on %q for x, want c", w)
	}
	wc, _ := ownerC.Get("x")
	if _, err := wc.Marry(4, 5); err != nil {
		t.Fatal(err)
	}

	recs, covered := srcC.TailFor("", 0, srcC.Seq())
	if !covered {
		t.Fatal("c's ring does not reach back to its first record")
	}
	fol, err := NewFollower(FollowerOpts{Owner: ownerB, Addr: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	frames := wire.AppendHeartbeat(wire.AppendRecords(nil, recs), srcC.Seq())
	if err := fol.stream().receive(bytes.NewReader(frames), func(uint64) bool { return false }); err != nil {
		t.Fatal(err)
	}
	bc, _ := ownerB.Get("x")
	if !bc.Fenced() || bc.Space() != wc.Space() || bc.Seq() != wc.Seq() {
		t.Fatalf("b's x: fenced %v, space %+v at %d; want fenced, c's %+v at %d", bc.Fenced(), bc.Space(), bc.Seq(), wc.Space(), wc.Seq())
	}
	if got, want := windowJSON(t, ownerB, "x"), windowJSON(t, ownerC, "x"); got != want {
		t.Fatalf("b's x is labelled as c's but answers otherwise:\nb %s\nc %s", got, want)
	}
}

// TestDoubleSelfPromotionLoserCatchesUp is the live form of
// TestDoubleSelfPromotionLoserReplaysWinner: b follows c throughout, so
// c's install and takeover records reach b while b owns x after its own
// self-promotion, and b's stream skips them. Once the tables cross and c
// writes to x, b's follower meets an edit in a space ahead of its fenced
// copy's, catches up from the start, and reaches c's seq, space and window.
func TestDoubleSelfPromotionLoserCatchesUp(t *testing.T) {
	lnC := listenTCP(t)
	addrC := "http://" + lnC.Addr().String()
	nodes := []service.Node{{ID: "a"}, {ID: "b"}, {ID: "c"}} // no addresses: each election sees only itself
	c := bootHNode(t, "c", nodes, lnC)
	b := bootHNode(t, "b", nodes, listenTCP(t))
	base := service.Placement{Epoch: 1, Nodes: nodes, Assign: map[string]string{"x": "a"}}
	for _, n := range []*hNode{b, c} {
		service.NewHandler(service.HandlerOpts{Owner: n.owner, Router: n.rt})
		if ok, err := n.rt.SetPlacement(base); err != nil || !ok {
			t.Fatalf("install base table: %v %v", ok, err)
		}
	}
	busy(t, b.owner, 20)
	origin := service.New(service.Opts{})
	orphan := ""
	for i := 0; orphan == ""; i++ {
		if id := fmt.Sprintf("a%d", i); c.rt.Place(id) == "a" {
			orphan = id
		}
	}
	for _, id := range []string{"x", orphan} {
		oc, err := origin.Create(id, 6, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		st := oc.Export()
		st.Seq = 5
		holders := []*service.Owner{c.owner}
		if id == "x" {
			holders = append(holders, b.owner)
		}
		for _, o := range holders {
			if _, err := o.InstallReplica(st); err != nil {
				t.Fatal(err)
			}
		}
	}

	fol, err := NewFollower(FollowerOpts{Owner: b.owner, Addr: addrC, Backoff: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	waitFor(t, "b to subscribe to c", fol.Connected)

	for _, n := range []*hNode{b, c} {
		d, err := NewDetector(DetectorOpts{Router: n.rt, Owner: n.owner})
		if err != nil {
			t.Fatal(err)
		}
		d.failover(context.Background(), "a")
	}
	writeOn(t, b.owner, "x", 1) // the loser's write
	waitFor(t, "c's takeover records to pass b's stream", func() bool { return fol.Applied() >= c.src.Seq() })
	pb, pc := b.rt.Placement(), c.rt.Placement()
	b.rt.SetPlacement(pc)
	c.rt.SetPlacement(pb)
	if w := b.rt.Placement().Assign["x"]; w != "c" {
		t.Fatalf("the tables converged on %q for x, want c", w)
	}
	wc, _ := c.owner.Get("x")
	if _, err := wc.Marry(4, 5); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b to reach c's copy of x", func() bool {
		bc, _ := b.owner.Get("x")
		return bc.Space() == wc.Space() && bc.Seq() == wc.Seq()
	})
	assertMirror(t, c.owner, b.owner, "x")
}
