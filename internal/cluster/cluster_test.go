package cluster

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// serveStream serves src on ln, as holidayd mounts it beside its API, and
// returns the base URL followers and handoffs dial. Cleanup closes the
// source, then the server.
func serveStream(t *testing.T, ln net.Listener, src *Source) string {
	t.Helper()
	srv := &http.Server{Handler: src}
	go srv.Serve(ln)
	t.Cleanup(func() {
		src.Close()
		srv.Close()
	})
	return "http://" + ln.Addr().String()
}

// pair boots an owner node (with a Source as its journal) serving
// replication on a loopback listener, plus a follower node subscribed to
// it. Cleanup tears both down.
func pair(t *testing.T, ringSize int) (*service.Owner, *Source, *service.Owner, *Follower) {
	t.Helper()
	owner := service.New(service.Opts{})
	src, err := NewSource(SourceOpts{Owner: owner, RingSize: ringSize, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	owner.SetJournal(src)
	addr := serveStream(t, listenTCP(t), src)

	replica := service.New(service.Opts{})
	fol, err := NewFollower(FollowerOpts{
		Owner:   replica,
		Addr:    addr,
		Backoff: 100 * time.Millisecond,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	donec := make(chan struct{})
	go func() { defer close(donec); fol.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-donec })
	return owner, src, replica, fol
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitWithin(t, 5*time.Second, what, cond)
}

// waitWithin polls cond for up to d.
func waitWithin(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// seed creates a community on the owner and churns it a bit.
func seed(t *testing.T, owner *service.Owner, id string, families int) *service.Community {
	t.Helper()
	c, err := owner.Create(id, families, nil, "")
	if err != nil {
		t.Fatalf("create %s: %v", id, err)
	}
	for u := 1; u < families; u++ {
		if _, err := c.Marry(0, u); err != nil {
			t.Fatalf("marry: %v", err)
		}
	}
	if _, _, err := c.Divorce(0, 1); err != nil {
		t.Fatalf("divorce: %v", err)
	}
	return c
}

// assertMirror checks the replica answers window queries byte-identically
// to the owner and is fenced.
func assertMirror(t *testing.T, owner, replica *service.Owner, id string) {
	t.Helper()
	rc, ok := replica.Get(id)
	if !ok {
		t.Fatalf("replica has no community %s", id)
	}
	if !rc.Fenced() {
		t.Fatalf("replicated community %s is not fenced", id)
	}
	assertSameAnswers(t, owner, replica, id)
}

// assertSameAnswers checks that two owners hold community id at the same
// sequence and answer its window and next-happy queries byte-identically.
func assertSameAnswers(t *testing.T, owner, replica *service.Owner, id string) {
	t.Helper()
	oc, ok := owner.Get(id)
	if !ok {
		t.Fatalf("owner lost community %s", id)
	}
	rc, ok := replica.Get(id)
	if !ok {
		t.Fatalf("replica has no community %s", id)
	}
	if oc.Seq() != rc.Seq() {
		t.Fatalf("seq mismatch for %s: owner %d, replica %d", id, oc.Seq(), rc.Seq())
	}
	ow, err := oc.Window(1, 200)
	if err != nil {
		t.Fatalf("owner window: %v", err)
	}
	rw, err := rc.Window(1, 200)
	if err != nil {
		t.Fatalf("replica window: %v", err)
	}
	ob, _ := json.Marshal(ow)
	rb, _ := json.Marshal(rw)
	if string(ob) != string(rb) {
		t.Fatalf("window mismatch for %s:\nowner   %s\nreplica %s", id, ob, rb)
	}
	// Poly schedules serve their edges, classic ones their families.
	sched, err := oc.Schedule()
	if err != nil {
		t.Fatalf("owner schedule: %v", err)
	}
	for v := 0; v < sched.(*core.ClassSchedule).Nodes(); v++ {
		on, err := oc.NextHappy(v, 1)
		if err != nil {
			t.Fatalf("owner next: %v", err)
		}
		rn, err := rc.NextHappy(v, 1)
		if err != nil {
			t.Fatalf("replica next: %v", err)
		}
		if on != rn {
			t.Fatalf("next mismatch for %s family %d: owner %d, replica %d", id, v, on, rn)
		}
	}
}

// TestLiveReplication streams records logged after the follower subscribed.
func TestLiveReplication(t *testing.T) {
	owner, src, replica, fol := pair(t, 64)
	waitFor(t, "follower connect", fol.Connected)

	seed(t, owner, "alpha", 6)
	seed(t, owner, "beta", 4)
	want := src.Seq()
	waitFor(t, "replication to catch up", func() bool { return fol.Applied() >= want })

	assertMirror(t, owner, replica, "alpha")
	assertMirror(t, owner, replica, "beta")

	// Caught up, each replica stands at its owner's sequence: the lag an
	// operator reads off /v1/status as the owner row's seq minus the
	// replica row's is 0.
	for _, id := range []string{"alpha", "beta"} {
		oc, _ := owner.Get(id)
		rc, _ := replica.Get(id)
		if oc.Seq() != rc.Seq() {
			t.Fatalf("caught-up replica of %s at seq %d, its owner at %d", id, rc.Seq(), oc.Seq())
		}
	}
}

// TestSnapshotCatchUp subscribes after the history has outrun the ring, so
// the follower must be caught up via per-community snapshots.
func TestSnapshotCatchUp(t *testing.T) {
	owner := service.New(service.Opts{})
	src, err := NewSource(SourceOpts{Owner: owner, RingSize: 4, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	owner.SetJournal(src)
	seed(t, owner, "alpha", 8) // well past a 4-record ring
	seed(t, owner, "beta", 5)

	addr := serveStream(t, listenTCP(t), src)

	replica := service.New(service.Opts{})
	fol, err := NewFollower(FollowerOpts{Owner: replica, Addr: addr, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fol.Run(ctx)

	want := src.Seq()
	waitFor(t, "snapshot catch-up", func() bool { return fol.Applied() >= want })
	assertMirror(t, owner, replica, "alpha")
	assertMirror(t, owner, replica, "beta")

	// And the stream stays live after catch-up.
	c, _ := owner.Get("alpha")
	if _, err := c.Marry(2, 3); err != nil {
		t.Fatalf("marry: %v", err)
	}
	want = src.Seq()
	waitFor(t, "post-catch-up record", func() bool { return fol.Applied() >= want })
	assertMirror(t, owner, replica, "alpha")
}

// TestFollowerRejectsDirectWrites checks the fence: replicated communities
// refuse writes with the not_owner envelope code.
func TestFollowerRejectsDirectWrites(t *testing.T) {
	owner, src, replica, fol := pair(t, 64)
	seed(t, owner, "alpha", 4)
	want := src.Seq()
	waitFor(t, "replication", func() bool { return fol.Applied() >= want })

	rc, ok := replica.Get("alpha")
	if !ok {
		t.Fatal("replica has no community")
	}
	_, err := rc.Marry(1, 2)
	var se *service.Error
	if err == nil {
		t.Fatal("write on a fenced replica succeeded")
	}
	if !errorAs(err, &se) || se.Code != service.CodeNotOwner {
		t.Fatalf("fenced write error = %v, want code not_owner", err)
	}
	if _, err := rc.AddFamily(); err == nil {
		t.Fatal("AddFamily on a fenced replica succeeded")
	}
	if _, err := rc.ChurnBatch([]core.Edit{{Op: core.EditInsert, U: 1, V: 3}}, nil); err == nil {
		t.Fatal("ChurnBatch on a fenced replica succeeded")
	}
}

// TestPromotionStopsReplication: once a replica is unfenced (promoted), the
// old stream must not clobber its locally owned state.
func TestPromotionStopsReplication(t *testing.T) {
	owner, src, replica, fol := pair(t, 64)
	seed(t, owner, "alpha", 4)
	want := src.Seq()
	waitFor(t, "replication", func() bool { return fol.Applied() >= want })

	if !replica.Unfence("alpha") {
		t.Fatal("Unfence failed")
	}
	rc, _ := replica.Get("alpha")
	if _, err := rc.Marry(1, 2); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	promotedSeq := rc.Seq()

	// The old owner keeps writing; the promoted replica must ignore it.
	oc, _ := owner.Get("alpha")
	if _, err := oc.Marry(1, 3); err != nil {
		t.Fatalf("owner marry: %v", err)
	}
	want = src.Seq()
	waitFor(t, "stream to advance", func() bool { return fol.Applied() >= want })
	if rc.Seq() != promotedSeq {
		t.Fatalf("promoted community was clobbered by the stale stream: seq %d, want %d", rc.Seq(), promotedSeq)
	}
	if rc.Fenced() {
		t.Fatal("promoted community re-fenced by the stale stream")
	}
}

// TestDeleteReplicates propagates community deletion.
func TestDeleteReplicates(t *testing.T) {
	owner, src, replica, fol := pair(t, 64)
	seed(t, owner, "alpha", 4)
	want := src.Seq()
	waitFor(t, "replication", func() bool { return fol.Applied() >= want })
	if _, err := owner.Delete("alpha"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	want = src.Seq()
	waitFor(t, "delete to replicate", func() bool { return fol.Applied() >= want })
	if _, ok := replica.Get("alpha"); ok {
		t.Fatal("replica still has the deleted community")
	}
}

// TestFollowerReconnects kills the stream and checks the follower resumes
// from its applied watermark on a fresh listener.
func TestFollowerReconnects(t *testing.T) {
	owner := service.New(service.Opts{})
	src, err := NewSource(SourceOpts{Owner: owner, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	owner.SetJournal(src)
	ln := listenTCP(t)
	srv := &http.Server{Handler: src}
	go srv.Serve(ln)

	replica := service.New(service.Opts{})
	fol, err := NewFollower(FollowerOpts{
		Owner: replica, Addr: "http://" + ln.Addr().String(),
		Backoff: 100 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fol.Run(ctx)

	seed(t, owner, "alpha", 4)
	want := src.Seq()
	waitFor(t, "initial replication", func() bool { return fol.Applied() >= want })

	// Tear the transport down mid-stream, then bring a listener back on the
	// same address.
	addr := ln.Addr().String()
	src.Close()
	srv.Close()
	waitFor(t, "follower to notice the drop", func() bool { return !fol.Connected() })

	src2, err := NewSource(SourceOpts{Owner: owner, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	src2.seq = src.Seq() // a restarted owner's journal resumes where it stopped
	owner.SetJournal(src2)
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	serveStream(t, ln2, src2)

	c, _ := owner.Get("alpha")
	if _, err := c.Marry(1, 3); err != nil {
		t.Fatalf("marry: %v", err)
	}
	want = src2.Seq()
	waitFor(t, "replication after reconnect", func() bool { return fol.Applied() >= want })
	assertMirror(t, owner, replica, "alpha")
}

// TestSourceSkipsFencedReplicas: a node that holds a fenced replica of a
// community another node owns does not stream it to its own followers,
// which follow that owner for it. A catch-up from states sends only what
// the node owns, and the replica's installs and records never reach its
// journal, so the ring does not carry them either.
func TestSourceSkipsFencedReplicas(t *testing.T) {
	owner := service.New(service.Opts{})
	src, err := NewSource(SourceOpts{Owner: owner, RingSize: 4, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	owner.SetJournal(src)
	seed(t, owner, "alpha", 8) // well past a 4-record ring: catch-up sends states
	elsewhere := service.New(service.Opts{})
	beta, err := elsewhere.Create("beta", 4, [][2]int{{0, 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.InstallReplica(beta.Export()); err != nil {
		t.Fatal(err)
	}
	if err := owner.Replicate(beta.Seq()+1, service.Record{Op: service.OpMarry, ID: "beta", U: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	addr := serveStream(t, listenTCP(t), src)

	replica := service.New(service.Opts{})
	fol, err := NewFollower(FollowerOpts{Owner: replica, Addr: addr, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fol.Run(ctx)

	want := src.Seq()
	waitFor(t, "catch-up", func() bool { return fol.Applied() >= want })
	assertMirror(t, owner, replica, "alpha")
	if _, ok := replica.Get("beta"); ok {
		t.Fatal("the source streamed a replica it does not own")
	}
}

// errorAs is errors.As without importing errors in every assertion.
func errorAs(err error, target **service.Error) bool {
	for err != nil {
		if e, ok := err.(*service.Error); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
