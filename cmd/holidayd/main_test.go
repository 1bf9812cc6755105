package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/persist"
	"repro/internal/service"
)

// parseArgs parses args the way main parses the command line.
func parseArgs(args ...string) (*config, error) {
	fs := flag.NewFlagSet("holidayd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseConfig(fs, args)
}

// daemon is one run of holidayd inside the test process.
type daemon struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// boot starts run on addr and waits until it answers /healthz.
func boot(t *testing.T, addr string, args ...string) *daemon {
	t.Helper()
	cfg, err := parseArgs(append([]string{"-addr", addr}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { d.done <- run(ctx, cfg) }()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-d.done:
			t.Fatalf("holidayd exited before becoming healthy: %v", err)
		default:
		}
		if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
	}
	d.stop(t)
	t.Fatal("holidayd never answered /healthz")
	return nil
}

// stop cancels run's context, as SIGTERM does, and waits for run to return.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.client.CloseIdleConnections()
	d.cancel()
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of cancel")
	}
}

// do sends one request and returns the response body, failing the test
// unless the status is want.
func (d *daemon) do(t *testing.T, method, path, body string, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, resp.StatusCode, want, got)
	}
	return got
}

// syncBuffer collects log output written from run's goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRestartAnswersByteForByte boots a durable daemon with a classic -demo
// community, creates a poly community over /v1, churns both through the
// single-op and batch endpoints, and stops it as SIGTERM would. The
// graceful stop must write a snapshot, a second boot from the data
// directory must answer every query byte for byte as the first did, and
// no goroutine of either run may outlive it.
func TestRestartAnswersByteForByte(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var logs syncBuffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	dir := filepath.Join(t.TempDir(), "data")

	// With -data-dir and -max-qps the first run starts every goroutine a
	// standalone node has; the periodic snapshotter stays idle at its
	// default interval, so any snapshot.json is the shutdown one.
	d := boot(t, freeAddr(t), "-data-dir", dir, "-demo", "gnp:n=64,p=0.08", "-max-qps", "10000")
	d.do(t, "POST", "/v1/communities",
		`{"id":"poly","kind":"poly","families":8,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0]],"default_demand":16}`,
		http.StatusCreated)
	d.do(t, "POST", "/v1/communities/demo/edges", `{"u":1,"v":2}`, http.StatusOK)
	d.do(t, "POST", "/v1/communities/demo/churn", `[{"op":"marry","u":3,"v":4},{"op":"divorce","u":1,"v":2}]`, http.StatusOK)
	d.do(t, "POST", "/v1/communities/poly/churn", `[{"op":"marry","u":0,"v":2,"demand":8},{"op":"marry","u":1,"v":3}]`, http.StatusOK)
	d.do(t, "DELETE", "/v1/communities/poly/edges?u=4&v=5", "", http.StatusOK)
	queries := []string{
		"/v1/communities/demo/window?from=1&to=52",
		"/v1/communities/demo/families/3/next?from=10",
		"/v1/communities/poly/window?from=1&to=64",
		"/v1/communities/poly/families/2/next?from=5",
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		want[i] = d.do(t, "GET", q, "", http.StatusOK)
	}
	d.stop(t)

	if fi, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil || fi.Size() == 0 {
		t.Fatalf("graceful stop left no snapshot.json (stat: %v)", err)
	}
	out := logs.String()
	if i := strings.Index(out, "shutting down"); i < 0 || !strings.Contains(out[i:], "snapshot saved") {
		t.Fatalf("no %q line after %q in the log:\n%s", "snapshot saved", "shutting down", out)
	}

	d = boot(t, freeAddr(t), "-data-dir", dir)
	for i, q := range queries {
		if got := d.do(t, "GET", q, "", http.StatusOK); !bytes.Equal(got, want[i]) {
			t.Errorf("GET %s after restart:\n got  %s\n want %s", q, got, want[i])
		}
	}
	d.stop(t)

	checkGoroutines(t, goroutines)
}

// TestPolyDemo boots a durable daemon with a poly -demo. The community
// must be poly-kind with every demand met, and its demand density must be
// its marriages over -demo-demand, which shows the demand reached it. A
// restart from the data directory with the same flags must restore the
// community rather than create it again, and answer a window byte for
// byte.
func TestPolyDemo(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	args := []string{"-demo", "gnp:n=32,p=0.2", "-demo-kind", "poly", "-demo-demand", "16",
		"-data-dir", filepath.Join(t.TempDir(), "data")}
	const window = "/v1/communities/demo/window?from=1&to=64"

	d := boot(t, freeAddr(t), args...)
	var st service.Stats
	if err := json.Unmarshal(d.do(t, "GET", "/v1/communities/demo", "", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != service.KindPoly || st.Poly == nil || st.Marriages == 0 ||
		st.Poly.MaxGapRatio > 1 || st.Poly.DemandDensity != float64(st.Marriages)/16 {
		t.Fatalf("poly -demo stats %+v (poly %+v), want kind poly, max gap ratio ≤ 1 and demand density marriages/16", st, st.Poly)
	}
	want := d.do(t, "GET", window, "", http.StatusOK)
	d.stop(t)
	created := fmt.Sprintf(`created poly community "demo": 32 families, %d marriages, default demand 16`, st.Marriages)
	if !strings.Contains(logs.String(), created) {
		t.Fatalf("no %q line in the log:\n%s", created, logs.String())
	}

	mark := len(logs.String())
	d = boot(t, freeAddr(t), args...)
	got := d.do(t, "GET", window, "", http.StatusOK)
	d.stop(t)
	if restart := logs.String()[mark:]; !strings.Contains(restart, `community "demo" already restored from`) ||
		strings.Contains(restart, "created poly community") {
		t.Fatalf("the restart's log does not say the demo was restored rather than created:\n%s", restart)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("GET %s after restart:\n got  %s\n want %s", window, got, want)
	}
}

// checkGoroutines fails the test if more than want goroutines outlive the
// daemons it stopped. Client and server connection goroutines wind down
// asynchronously after run returns; anything still alive past the
// deadline leaked.
func checkGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			var stacks bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("%d goroutines after the daemons stopped, %d before:\n%s", runtime.NumGoroutine(), want, stacks.String())
		}
	}
}

// TestRejectedConfigLeavesNoDataDir: every flag rule and every topology or
// -follow error must fail before run touches the data directory.
func TestRejectedConfigLeavesNoDataDir(t *testing.T) {
	tmp := t.TempDir()
	peers := filepath.Join(tmp, "nodes.json")
	topo := `{"nodes":[
		{"id":"a","addr":"http://127.0.0.1:1"},
		{"id":"b","addr":"http://127.0.0.1:3"},
		{"id":"c"}]}`
	if err := os.WriteFile(peers, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"empty addr", []string{"-addr", ""}, "-addr must not be empty"},
		{"negative snapshot interval", []string{"-snapshot-every", "-1s"}, "-snapshot-every must be ≥ 0"},
		{"negative WAL sync", []string{"-wal-sync", "-1ms"}, "-wal-sync must be ≥ 0"},
		{"node id without peers", []string{"-node-id", "a"}, "-node-id and -peers must be set together"},
		{"peers without node id", []string{"-peers", peers}, "-node-id and -peers must be set together"},
		{"unknown demo kind", []string{"-demo-kind", "throuple"}, `-demo-kind "throuple"`},
		{"zero demo demand", []string{"-demo-demand", "0"}, "-demo-demand must be ≥ 1"},
		{"malformed demo spec", []string{"-demo", "cycle:n"}, `bad parameter "n" in spec "cycle:n"`},
		{"demo spec its generator cannot build", []string{"-demo", "cycle:n=2"}, "-demo: graph: spec \"cycle:n=2\": want n ≥ 3"},
		{"follow without topology", []string{"-follow", "all"}, "-follow requires -node-id and -peers"},
		{"missing topology file", []string{"-node-id", "a", "-peers", filepath.Join(tmp, "absent.json")}, "topology"},
		{"self not in topology", []string{"-node-id", "z", "-peers", peers}, `self "z" is not in the topology`},
		{"follow unknown peer", []string{"-node-id", "a", "-peers", peers, "-follow", "z"}, "-follow z: not in the topology"},
		{"follow peer without addr", []string{"-node-id", "a", "-peers", peers, "-follow", "c"}, "-follow c: node has no addr"},
		{"removed -churn-batch", []string{"-churn-batch", "4"}, "flag provided but not defined: -churn-batch"},
		{"removed -churn-flush-ms", []string{"-churn-flush-ms", "2ms"}, "flag provided but not defined: -churn-flush-ms"},
		{"removed -bin-max-batch", []string{"-bin-max-batch", "1024"}, "flag provided but not defined: -bin-max-batch"},
		{"removed -repl", []string{"-repl", "127.0.0.1:9090"}, "flag provided but not defined: -repl"},
	}
	// A cancelled context makes a config that wrongly passes stop at once
	// instead of serving forever.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-demo", "gnp:n=16,p=0.2"}, tc.args...)
			cfg, err := parseArgs(args...)
			if err == nil {
				err = run(ctx, cfg)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("rejected config created the data directory (stat: %v)", err)
			}
		})
	}
}

// status reads the node's /v1/status.
func (d *daemon) status(t *testing.T) service.NodeStatus {
	t.Helper()
	var st service.NodeStatus
	if err := json.Unmarshal(d.do(t, "GET", "/v1/status", "", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// community returns id's entry in the node's /v1/status, if it lists one.
func (d *daemon) community(t *testing.T, id string) (service.CommunityStatus, bool) {
	t.Helper()
	for _, c := range d.status(t).Communities {
		if c.ID == id {
			return c, true
		}
	}
	return service.CommunityStatus{}, false
}

// TestTwoNodeCluster boots nodes a and b in-process from one topology
// file, one port each. a's entry still names the replication address of
// older builds, which must load and be ignored. b follows a, fsyncs every
// record into its data directory, and runs no failover detector.
//   - A community created on a reaches b as a follower answering the same
//     window.
//   - POST /v1/handoff to a moves a second community to b.
//   - b is promoted for the first community and takes a write to it. A
//     copy of b's WAL segments, taken right after that write was
//     acknowledged, which is what a crash would leave before any
//     snapshot, then holds both communities and answers their windows as
//     b does: the takeovers are journaled, and b saves no snapshot before
//     its stop.
//
// No goroutine of either run may outlive both stops.
func TestTwoNodeCluster(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var logs syncBuffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	addrA, addrB := freeAddr(t), freeAddr(t)
	topo := filepath.Join(t.TempDir(), "nodes.json")
	if err := os.WriteFile(topo, []byte(`{"nodes":[
		{"id":"a","addr":"http://`+addrA+`","repl":"127.0.0.1:1"},
		{"id":"b","addr":"http://`+addrB+`"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	nodes, err := service.LoadTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := service.NewRouter(service.RouterOpts{Nodes: nodes.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string // two communities the ring places on a
	for i := 0; len(ids) < 2; i++ {
		if id := fmt.Sprintf("c%d", i); rt.Place(id) == "a" {
			ids = append(ids, id)
		}
	}
	x, y := ids[0], ids[1]
	dir := filepath.Join(t.TempDir(), "data-b")

	a := boot(t, addrA, "-node-id", "a", "-peers", topo)
	b := boot(t, addrB, "-node-id", "b", "-peers", topo, "-follow", "all",
		"-data-dir", dir, "-wal-sync", "0", "-failover-after", "0")
	for _, id := range ids {
		a.do(t, "POST", "/v1/communities", `{"id":"`+id+`","families":8,"edges":[[0,1],[1,2]]}`, http.StatusCreated)
		a.do(t, "POST", "/v1/communities/"+id+"/churn", `[{"op":"marry","u":2,"v":3},{"op":"marry","u":4,"v":5}]`, http.StatusOK)
	}
	window := func(id string) string { return "/v1/communities/" + id + "/window?from=1&to=52" }

	// Replication: x reaches b as a follower at a's sequence.
	owned, ok := a.community(t, x)
	if !ok || owned.Role != "owner" {
		t.Fatalf("a lists %s as %+v, want its owner", x, owned)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if c, ok := b.community(t, x); ok && c.Role == "follower" && c.Seq == owned.Seq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b never followed %s to seq %d; b's status: %+v", x, owned.Seq, b.status(t))
		}
	}
	if got, want := b.do(t, "GET", window(x), "", http.StatusOK), a.do(t, "GET", window(x), "", http.StatusOK); !bytes.Equal(got, want) {
		t.Fatalf("follower b answers %s\n got  %s\n want %s", window(x), got, want)
	}

	// Handoff: y moves to b at the next epoch over b's stream route.
	wantY := a.do(t, "GET", window(y), "", http.StatusOK)
	var table service.Placement
	if err := json.Unmarshal(a.do(t, "GET", "/v1/placement", "", http.StatusOK), &table); err != nil {
		t.Fatal(err)
	}
	table.Epoch++
	if table.Assign == nil {
		table.Assign = map[string]string{}
	}
	table.Assign[y] = "b"
	req, err := json.Marshal(service.HandoffRequest{Community: y, Table: table})
	if err != nil {
		t.Fatal(err)
	}
	a.do(t, "POST", "/v1/handoff", string(req), http.StatusOK)
	if c, ok := b.community(t, y); !ok || c.Role != "owner" {
		t.Fatalf("after the handoff b lists %s as %+v, want its owner", y, c)
	}
	if got := b.do(t, "GET", window(y), "", http.StatusOK); !bytes.Equal(got, wantY) {
		t.Fatalf("b answers %s after the handoff\n got  %s\n want %s", window(y), got, wantY)
	}

	// Promote: b takes x over and acknowledges a write to it.
	b.do(t, "POST", "/v1/promote", `{"community":"`+x+`"}`, http.StatusOK)
	b.do(t, "POST", "/v1/communities/"+x+"/edges", `{"u":6,"v":7}`, http.StatusOK)
	want := map[string][]byte{x: b.do(t, "GET", window(x), "", http.StatusOK), y: wantY}

	// Both takeovers are durable once acknowledged: b's WAL holds them.
	if lost := crashCopyAnswers(t, dir, window, want); lost != nil {
		t.Fatalf("a copy of b's WAL segments lost a takeover: %v\nlog:\n%s", lost, logs.String())
	}
	if strings.Contains(logs.String(), "snapshot saved") {
		t.Fatalf("a snapshot was saved before the stop; the copy must stand on the WAL alone\nlog:\n%s", logs.String())
	}

	b.stop(t)
	a.stop(t)
	checkGoroutines(t, goroutines)
}

// TestStopWithConnectedFollower: an owner whose stream a follower is
// reading returns from run within 2s of cancellation, since Shutdown waits
// for every request and closing the Source is what ends a subscription's.
// No goroutine of either run may outlive both stops.
func TestStopWithConnectedFollower(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var logs syncBuffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	addrA, addrB := freeAddr(t), freeAddr(t)
	topo := filepath.Join(t.TempDir(), "nodes.json")
	if err := os.WriteFile(topo, []byte(`{"nodes":[
		{"id":"a","addr":"http://`+addrA+`"},
		{"id":"b","addr":"http://`+addrB+`"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	nodes, err := service.LoadTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := service.NewRouter(service.RouterOpts{Nodes: nodes.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	id := ""
	for i := 0; id == ""; i++ {
		if c := fmt.Sprintf("c%d", i); rt.Place(c) == "a" {
			id = c
		}
	}
	a := boot(t, addrA, "-node-id", "a", "-peers", topo, "-failover-after", "0")
	b := boot(t, addrB, "-node-id", "b", "-peers", topo, "-follow", "all", "-failover-after", "0")
	a.do(t, "POST", "/v1/communities", `{"id":"`+id+`","families":4,"edges":[[0,1]]}`, http.StatusCreated)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if c, ok := b.community(t, id); ok && c.Role == "follower" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b never followed %s; b's status: %+v", id, b.status(t))
		}
	}

	start := time.Now()
	a.client.CloseIdleConnections()
	a.cancel()
	select {
	case err := <-a.done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("run returned %v after cancellation, want within 2s", took)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("run did not return within 2s of cancellation with a follower connected; log:\n%s", logs.String())
	}
	b.stop(t)
	checkGoroutines(t, goroutines)
}

// crashCopyAnswers copies the WAL segments of a data directory that holds
// no snapshot, the way a crash would leave them, loads the copy, and
// reports the first community whose window differs from want.
func crashCopyAnswers(t *testing.T, dir string, window func(id string) string, want map[string][]byte) error {
	t.Helper()
	cp := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("%s holds a snapshot (stat: %v)", dir, err)
	}
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := persist.Open(cp, persist.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	restored, err := store.Load()
	if err != nil {
		return err
	}
	h := service.NewHandler(service.HandlerOpts{Owner: restored})
	for id, body := range want {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", window(id), nil))
		if got := rec.Body.Bytes(); !bytes.Equal(got, body) {
			return fmt.Errorf("%s answers %s, want %s", id, got, body)
		}
	}
	return nil
}

// TestAdmissionExemptions: with no token ever refilled, data-plane
// requests wait for admission, while control routes are served at once:
// liveness, status, the placement route the failure detector pulls,
// handoffs, promotes and the stream route of replication and handoffs.
func TestAdmissionExemptions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, _ := admissionLimit(ctx, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), 1)
	serve := func(method, path string) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, nil))
		}()
		return done
	}
	for _, path := range []string{"/healthz", "/v1/status", "/v1/placement", "/v1/handoff", "/v1/promote", cluster.StreamPath} {
		select {
		case <-serve("GET", path):
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited for admission", path)
		}
	}
	var queued []chan struct{}
	for _, path := range []string{"/v1/communities", "/communities/x/window", "/v1/bin/window"} {
		done := serve("POST", path)
		select {
		case <-done:
			t.Fatalf("data-plane request %s was served without a token", path)
		case <-time.After(50 * time.Millisecond):
		}
		queued = append(queued, done)
	}
	cancel()
	for _, done := range queued {
		<-done
	}
}

// TestAdmissionDropsDepartedClients: with no token ever refilled, a
// bodiless data-plane request whose client disconnects while it queues
// returns without reaching the handler, instead of waiting for a token and
// spending it. The request travels through a real server, since net/http
// cancels a request's context only when it notices the disconnect.
func TestAdmissionDropsDepartedClients(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	var served atomic.Bool
	h, _ := admissionLimit(ctx, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		served.Store(true)
	}), 1)
	arrived, returned := make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		h.ServeHTTP(w, r)
		close(returned)
	}))
	defer func() {
		stop() // admits the request if it still queues, so Close can return
		srv.Close()
	}()
	client, leave := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(client, "GET", srv.URL+"/v1/communities/x/window?from=1&to=9", nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		if resp, err := srv.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-arrived
	leave()
	<-sent
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("a request whose client has gone still waits for admission")
	}
	if served.Load() {
		t.Fatal("a request whose client has gone reached the handler")
	}
}
