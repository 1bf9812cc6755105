package cluster

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/internal/service"
	"repro/internal/wire"
)

// countingJournal counts every record a node journals. Attached to a node
// that only replicates, any record it sees is a direct write that landed on
// a replica the node does not own.
type countingJournal struct{ n atomic.Int64 }

// Log implements service.Journal. It returns sequence 0 so a stray write
// cannot push the replica's seq past the installs that follow it.
func (j *countingJournal) Log(service.Record) (uint64, error) {
	j.n.Add(1)
	return 0, nil
}

// TestReplicaNeverVisibleUnfenced installs a replica over and over, through
// every path of the one applier, while a writer hammers whatever Get
// returns. A replica must be fenced from the moment it is visible, and a
// replaced copy must be fenced before its successor is, so no write may
// ever be journaled on this node.
func TestReplicaNeverVisibleUnfenced(t *testing.T) {
	const id, families, rounds = "r", 8, 3000
	origin := service.New(service.Opts{})
	oc, err := origin.Create(id, families, [][2]int{{0, 1}, {1, 2}}, "")
	if err != nil {
		t.Fatal(err)
	}
	st := oc.Export()

	replica := service.New(service.Opts{})
	j := &countingJournal{}
	replica.SetJournal(j)
	fol, err := NewFollower(FollowerOpts{Owner: replica, Addr: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	// A handoff offer's install (Owner.InstallReplica, which InstallOffer
	// runs before it journals), and the applier of a subscription, fed
	// whole frames up to a heartbeat.
	followed := fol.stream()
	stream := func(frames []byte) error {
		return followed.receive(bytes.NewReader(frames), func(uint64) bool { return false })
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c, ok := replica.Get(id); ok {
				_, _ = c.Marry(4, 5)
				_, _, _ = c.Divorce(4, 5)
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	phase := func(name string, step func() error) {
		t.Helper()
		before := j.n.Load()
		for i := 1; i <= rounds; i++ {
			if err := step(); err != nil {
				t.Fatalf("%s round %d: %v", name, i, err)
			}
		}
		if n := j.n.Load() - before; n != 0 {
			t.Errorf("%s: %d direct writes journaled on an unfenced replica", name, n)
		}
	}
	seq := uint64(0)
	next := func() uint64 { seq++; return seq }

	phase("handoff offer", func() error {
		st.Seq = next()
		_, err := replica.InstallReplica(st)
		return err
	})
	phase("follower snapshot", func() error {
		st.Seq = next()
		data, err := json.Marshal(service.Record{Op: service.OpInstall, ID: id, State: &st})
		if err != nil {
			return err
		}
		return stream(wire.AppendHeartbeat(wire.AppendRecords(nil, []wire.RawRecord{{Seq: st.Seq, Data: data}}), st.Seq))
	})

	create, err := json.Marshal(service.Record{Op: service.OpCreate, ID: id, N: families, Edges: [][2]int{{0, 1}, {1, 2}}, Code: "omega"})
	if err != nil {
		t.Fatal(err)
	}
	del, err := json.Marshal(service.Record{Op: service.OpDelete, ID: id})
	if err != nil {
		t.Fatal(err)
	}
	records := func(recs ...wire.RawRecord) error {
		return stream(wire.AppendHeartbeat(wire.AppendRecords(nil, recs), recs[len(recs)-1].Seq))
	}
	if err := records(wire.RawRecord{Seq: next(), Data: del}); err != nil {
		t.Fatal(err)
	}
	phase("follower record create", func() error {
		return records(wire.RawRecord{Seq: next(), Data: create}, wire.RawRecord{Seq: next(), Data: del})
	})
}
