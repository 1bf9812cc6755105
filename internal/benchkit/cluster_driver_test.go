package benchkit

import (
	"context"
	"errors"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// testNode is one in-process cluster member served as holidayd serves it:
// the API and the stream route on one listener, handoffs run by
// cluster.Handoff.
type testNode struct {
	owner *service.Owner
	rt    *service.Router
	// wrote holds a value once this node has answered a write.
	wrote chan struct{}
}

func bootTestCluster(t *testing.T, ids ...string) ([]service.Node, []*testNode) {
	t.Helper()
	var nodes []service.Node
	var lns []net.Listener
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		nodes = append(nodes, service.Node{ID: id, Addr: "http://" + ln.Addr().String()})
	}
	var out []*testNode
	for i, n := range nodes {
		tn := &testNode{owner: service.New(service.Opts{}), wrote: make(chan struct{}, 1)}
		rt, err := service.NewRouter(service.RouterOpts{Self: n.ID, Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		tn.rt = rt
		src, err := cluster.NewSource(cluster.SourceOpts{Owner: tn.owner, Router: rt})
		if err != nil {
			t.Fatal(err)
		}
		tn.owner.SetJournal(src)
		api := service.NewHandler(service.HandlerOpts{Owner: tn.owner, Router: rt,
			Handoff: src.Handoff})
		mux := http.NewServeMux()
		mux.Handle(cluster.StreamPath, src)
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			api.ServeHTTP(w, r)
			if strings.HasSuffix(r.URL.Path, "/edges") || r.URL.Path == "/v1/bin/churn" {
				select {
				case tn.wrote <- struct{}{}:
				default:
				}
			}
		})
		srv := &http.Server{Handler: mux}
		go srv.Serve(lns[i])
		t.Cleanup(func() {
			src.Close()
			srv.Close()
		})
		out = append(out, tn)
	}
	return nodes, out
}

// TestRotateResendsWritesItsMoveRefused: a write that the moving
// community's old owner refuses inside Rotate's handoff, in the window
// where it is fenced and has not yet flipped its table, is re-sent once,
// after the move, to the new owner. A refusal of the re-sent write and a
// not_owner with no move running still fail the op.
func TestRotateResendsWritesItsMoveRefused(t *testing.T) {
	cases := []struct {
		name string
		// rotate runs the write inside a Rotate; otherwise the owner
		// fences the community and no move runs.
		rotate bool
		// refence fences the community on the new owner as it takes it
		// over, so the re-sent write is refused too.
		refence bool
		batch   bool
		refused bool
	}{
		{name: "refused inside a move", rotate: true},
		{name: "refused inside a move, batched", rotate: true, batch: true},
		{name: "refused again after the move", rotate: true, refence: true, refused: true},
		{name: "refused outside a move", refused: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes, cl := bootTestCluster(t, "a", "b")
			d, err := NewClusterDriver(service.Topology{Nodes: nodes}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tc.batch {
				d.Proto = ProtoBinary
			}
			if _, err := d.Setup(&Scenario{Communities: []CommunitySpec{{ID: "r", Spec: "cycle:n=16"}}}, 1); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			placed := func() int { return slices.Index(d.ids, d.router.Place("r")) }
			from := placed()
			to := 1 - from
			op := Op{Kind: OpMarry, Community: 0, U: 0, V: 8}
			do := func() error {
				if !tc.batch {
					return d.Do(op)
				}
				errs := make([]error, 1)
				if err := d.DoBatch([]Op{op}, errs); err != nil {
					return err
				}
				return errs[0]
			}

			errc := make(chan error, 1)
			if tc.rotate {
				// The new owner installs the move's table just before it
				// acks, inside the old owner's fenced window: write to the
				// community there, and hold the ack until the old owner
				// has answered the write.
				var once sync.Once
				cl[to].rt.OnChange(func(service.Placement) {
					once.Do(func() {
						if tc.refence {
							cl[to].owner.Fence("r")
						}
						go func() { errc <- do() }()
						select {
						case <-cl[from].wrote:
						case <-time.After(5 * time.Second):
							t.Error("the old owner never answered the write")
						}
					})
				})
				if err := d.Rotate(context.Background()); err != nil {
					t.Fatal(err)
				}
				if got := placed(); got != to {
					t.Fatalf("after the move the driver places r on node %d, want %d", got, to)
				}
			} else {
				cl[from].owner.Fence("r")
				errc <- do()
			}

			select {
			case err = <-errc:
			case <-time.After(10 * time.Second):
				t.Fatal("the write never finished")
			}
			var se *service.Error
			switch {
			case !tc.refused && err != nil:
				t.Fatalf("write = %v, want it re-sent to the new owner", err)
			case tc.refused && (!errors.As(err, &se) || se.Code != service.CodeNotOwner):
				t.Fatalf("write = %v, want a not_owner failure", err)
			}
		})
	}
}
