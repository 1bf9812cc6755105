package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
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

// boot starts run on a free loopback port and waits until it answers
// /healthz.
func boot(t *testing.T, args ...string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
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
	d := boot(t, "-data-dir", dir, "-demo", "gnp:n=64,p=0.08", "-max-qps", "10000")
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

	d = boot(t, "-data-dir", dir)
	for i, q := range queries {
		if got := d.do(t, "GET", q, "", http.StatusOK); !bytes.Equal(got, want[i]) {
			t.Errorf("GET %s after restart:\n got  %s\n want %s", q, got, want[i])
		}
	}
	d.stop(t)

	// Client and server connection goroutines wind down asynchronously
	// after run returns; anything still alive past the deadline leaked.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			var stacks bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("%d goroutines after two boots, %d before:\n%s", runtime.NumGoroutine(), goroutines, stacks.String())
		}
	}
}

// TestRejectedConfigLeavesNoDataDir: every flag rule and every topology or
// -follow error must fail before run touches the data directory.
func TestRejectedConfigLeavesNoDataDir(t *testing.T) {
	tmp := t.TempDir()
	peers := filepath.Join(tmp, "nodes.json")
	topo := `{"nodes":[
		{"id":"a","addr":"http://127.0.0.1:1","repl":"127.0.0.1:2"},
		{"id":"b","addr":"http://127.0.0.1:3","repl":"127.0.0.1:4"},
		{"id":"c","addr":"http://127.0.0.1:5"}]}`
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
		{"follow peer without repl", []string{"-node-id", "a", "-peers", peers, "-follow", "c"}, "-follow c: node has no repl address"},
		{"removed -churn-batch", []string{"-churn-batch", "4"}, "flag provided but not defined: -churn-batch"},
		{"removed -churn-flush-ms", []string{"-churn-flush-ms", "2ms"}, "flag provided but not defined: -churn-flush-ms"},
		{"removed -bin-max-batch", []string{"-bin-max-batch", "1024"}, "flag provided but not defined: -bin-max-batch"},
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
