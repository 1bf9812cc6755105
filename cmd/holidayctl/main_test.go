package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/service"
)

// testCluster is a four-member topology: a and b are live NewHandler nodes,
// c answers every request 503 with the error envelope, and d's address is
// closed.
type testCluster struct {
	topo   service.Topology
	owners map[string]*service.Owner
	rts    map[string]*service.Router
}

func bootCluster(t *testing.T) *testCluster {
	t.Helper()
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"code":"unavailable","message":"node c is draining"}`))
	}))
	t.Cleanup(draining.Close)
	closed, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	closed.Close()
	lns := map[string]net.Listener{}
	for _, id := range []string{"a", "b"} {
		if lns[id], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatalf("listen: %v", err)
		}
	}
	tc := &testCluster{
		topo: service.Topology{Nodes: []service.Node{
			{ID: "a", Addr: "http://" + lns["a"].Addr().String()},
			{ID: "b", Addr: "http://" + lns["b"].Addr().String()},
			{ID: "c", Addr: draining.URL},
			{ID: "d", Addr: "http://" + closed.Addr().String()},
		}},
		owners: map[string]*service.Owner{},
		rts:    map[string]*service.Router{},
	}
	for id, ln := range lns {
		rt, err := service.NewRouter(service.RouterOpts{Self: id, Nodes: tc.topo.Nodes})
		if err != nil {
			t.Fatalf("NewRouter(%s): %v", id, err)
		}
		owner := service.New(service.Opts{})
		srv := &http.Server{Handler: service.NewHandler(service.HandlerOpts{Owner: owner, Router: rt})}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		tc.owners[id], tc.rts[id] = owner, rt
	}
	// a owns x and z; b owns y and follows x.
	for _, c := range []struct{ node, id string }{{"a", "x"}, {"a", "z"}, {"b", "y"}, {"b", "x"}} {
		if _, err := tc.owners[c.node].Create(c.id, 4, nil, ""); err != nil {
			t.Fatalf("create %s on %s: %v", c.id, c.node, err)
		}
	}
	tc.owners["b"].Fence("x")
	return tc
}

// TestStatus: live nodes render their epoch and owns/follows counts; a node
// refusing with 503 and an unreachable one both render as down.
func TestStatus(t *testing.T) {
	tc := bootCluster(t)
	var out bytes.Buffer
	if err := status(&out, service.NewClient(nil), tc.topo); err != nil {
		t.Fatalf("status: %v", err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 6 && f[1] != "assign:" {
			if _, dup := rows[f[0]]; !dup {
				rows[f[0]] = f
			}
		}
	}
	for node, want := range map[string]string{"a": "up 0 2 0", "b": "up 0 1 1", "c": "down - - -", "d": "down - - -"} {
		if got := strings.Join(rows[node][2:6], " "); got != want {
			t.Errorf("node %s row %q, want state/epoch/owns/follows %q\n%s", node, got, want, out.String())
		}
	}
	if !strings.Contains(out.String(), "(node c is draining)") {
		t.Errorf("503 node's row does not carry its message:\n%s", out.String())
	}
}

// TestStatusOwnerSeq: a follower row prints its owner row's seq beside its
// own, so a replica's lag reads off two numbers; an owner row prints none,
// and neither does a follower row whose owner is not among the members
// that answered.
func TestStatusOwnerSeq(t *testing.T) {
	tc := bootCluster(t)
	// a's x runs ahead of b's replica of it, and b follows q, which no
	// member that answers owns.
	marry := service.Record{Op: service.OpMarry, ID: "x", U: 0, V: 1}
	if err := tc.owners["a"].Apply(7, marry); err != nil {
		t.Fatalf("apply on a: %v", err)
	}
	if err := tc.owners["b"].Replicate(3, marry); err != nil {
		t.Fatalf("replicate on b: %v", err)
	}
	if err := tc.owners["b"].Replicate(5, service.Record{Op: service.OpCreate, ID: "q", N: 4}); err != nil {
		t.Fatalf("replicate q on b: %v", err)
	}
	var out bytes.Buffer
	if err := status(&out, service.NewClient(nil), tc.topo); err != nil {
		t.Fatalf("status: %v", err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 4 && f[4] == "seq" {
			rows[f[0]+" "+f[1]] = strings.Join(f[3:slices.Index(f, "placed")], " ")
		}
	}
	for row, want := range map[string]string{
		"a x": "owner seq 7",
		"b x": "follower seq 3 owner seq 7",
		"b q": "follower seq 5",
	} {
		if rows[row] != want {
			t.Errorf("row %q reads %q, want %q\n%s", row, rows[row], want, out.String())
		}
	}
}

// TestPromote: promoting a community the node does not hold fails with the
// node's not_found message; promoting a fenced replica succeeds and reports
// the epoch it was published at.
func TestPromote(t *testing.T) {
	tc := bootCluster(t)
	client := service.NewClient(nil)
	var out bytes.Buffer
	err := promote(&out, client, tc.topo, []string{"ghost", "a"})
	var ae *service.Error
	if !errors.As(err, &ae) || ae.Code != service.CodeNotFound || !strings.Contains(err.Error(), `no community "ghost" on this node`) {
		t.Fatalf("promote of an absent community: %v", err)
	}

	before := tc.rts["b"].Epoch()
	if err := promote(&out, client, tc.topo, []string{"x", "b"}); err != nil {
		t.Fatalf("promote x on b: %v", err)
	}
	if want := `promoted: {"community":"x","epoch":1,"node":"b","seq":0}` + "\n"; out.String() != want || before != 0 {
		t.Fatalf("promote printed %q (epoch before %d), want %q", out.String(), before, want)
	}
	if c, _ := tc.owners["b"].Get("x"); c.Fenced() || tc.rts["b"].Placement().Assign["x"] != "b" {
		t.Fatal("promoted replica is still fenced or unassigned")
	}
}

// TestPlace: each id prints the node and address the consistent-hash
// router places it on; no ids is an error.
func TestPlace(t *testing.T) {
	topo := service.Topology{Nodes: []service.Node{
		{ID: "a", Addr: "http://127.0.0.1:1"},
		{ID: "b", Addr: "http://127.0.0.1:2"},
		{ID: "c", Addr: "http://127.0.0.1:3"},
	}}
	rt, err := service.NewRouter(service.RouterOpts{Nodes: topo.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"demo", "x", "y", "community-42"}
	var out bytes.Buffer
	if err := place(&out, topo, ids); err != nil {
		t.Fatalf("place: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(ids) {
		t.Fatalf("place printed %d lines for %d ids:\n%s", len(lines), len(ids), out.String())
	}
	for i, id := range ids {
		node := rt.Place(id)
		addr, _ := rt.Addr(node)
		if f := strings.Fields(lines[i]); len(f) != 4 || f[0] != id || f[2] != node || f[3] != "("+addr+")" {
			t.Errorf("line %q, want %s -> %s (%s)", lines[i], id, node, addr)
		}
	}
	if err := place(&out, topo, nil); err == nil {
		t.Error("place with no ids succeeded")
	}
}

// TestJoin: join rewrites the topology file with the new member and, with
// no member reachable, says the live rebalance did not run; a duplicate id,
// and a third argument (the replication address older builds took), are
// refused without touching the file.
func TestJoin(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addrs = append(addrs, "http://"+ln.Addr().String())
		ln.Close()
	}
	path := filepath.Join(t.TempDir(), "nodes.json")
	raw, err := json.Marshal(service.Topology{Nodes: []service.Node{{ID: "a", Addr: addrs[0]}, {ID: "b", Addr: addrs[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := service.LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := join(&out, path, topo, []string{"c", addrs[2]}); err != nil {
		t.Fatalf("join: %v", err)
	}
	if !strings.Contains(out.String(), "joined c; 3 nodes") || !strings.Contains(out.String(), "live rebalance not run") {
		t.Errorf("join output:\n%s", out.String())
	}
	joined, err := service.LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []service.Node{{ID: "a", Addr: addrs[0]}, {ID: "b", Addr: addrs[1]}, {ID: "c", Addr: addrs[2]}}
	if !slices.Equal(joined.Nodes, want) {
		t.Fatalf("topology file holds %+v, want %+v", joined.Nodes, want)
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := join(&out, path, joined, []string{"b", addrs[2]}); err == nil || !strings.Contains(err.Error(), `node "b" already in the topology`) {
		t.Fatalf("joining a duplicate id: %v", err)
	}
	if err := join(&out, path, joined, []string{"d", addrs[2], "127.0.0.1:9"}); err == nil || !strings.Contains(err.Error(), "join: want <id> <addr>") {
		t.Fatalf("joining with a replication address: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused join changed the topology file (err %v):\n%s", err, after)
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("refused join left files beside the topology: %v (err %v)", entries, err)
	}
}
