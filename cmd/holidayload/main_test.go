package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/service"
)

// parseArgs parses a holidayload command line on a fresh flag set.
func parseArgs(args ...string) (*config, error) {
	fs := flag.NewFlagSet("holidayload", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseConfig(fs, args)
}

// TestRejectedConfig: every rule validate enforces refuses its command line
// before anything runs, and the removed -churn-batch is an unknown flag.
func TestRejectedConfig(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero workers", []string{"-workers", "0"}, "-workers must be ≥ 1"},
		{"negative qps", []string{"-qps", "-1"}, "-qps must be ≥ 0"},
		{"negative duration", []string{"-duration", "-1s"}, "-duration must be positive"},
		{"zero threshold", []string{"-threshold", "0"}, "-threshold must be in (0,1)"},
		{"threshold of one", []string{"-threshold", "1"}, "-threshold must be in (0,1)"},
		{"replay with target", []string{"-replay", "a.json", "-target", "http://127.0.0.1:1"}, "-replay loads a recorded snapshot"},
		{"replay with duration", []string{"-replay", "a.json", "-duration", "1s"}, "-replay loads a recorded snapshot"},
		{"replay with cluster", []string{"-replay", "a.json", "-cluster", "/nonexistent/nodes.json"}, "-replay loads a recorded snapshot"},
		{"replay with persist", []string{"-replay", "a.json", "-persist"}, "-replay loads a recorded snapshot"},
		{"replay with scenario", []string{"-replay", "a.json", "-scenario", "mega", "-compare", "b.json"}, "cannot be combined with -scenario"},
		{"cluster with target", []string{"-cluster", "nodes.json", "-target", "http://127.0.0.1:1"}, "mutually exclusive"},
		{"unknown proto", []string{"-proto", "grpc"}, `-proto must be "json" or "binary"`},
		{"binary in process", []string{"-proto", "binary"}, "it requires -target or -cluster"},
		{"zero batch", []string{"-batch", "0"}, "-batch must be ≥ 1"},
		{"batched JSON target", []string{"-batch", "4", "-target", "http://127.0.0.1:1"}, "add -proto binary"},
		{"batched JSON cluster", []string{"-batch", "4", "-cluster", "nodes.json"}, "add -proto binary"},
		{"churn fraction above one", []string{"-churn-frac", "1.5"}, "-churn-frac must be in [0,1]"},
		{"persist with target", []string{"-persist", "-target", "http://127.0.0.1:1"}, "-persist only applies to in-process runs"},
		{"persist with cluster", []string{"-persist", "-cluster", "nodes.json"}, "-persist only applies to in-process runs"},
		{"sync-always without persist", []string{"-wal-sync-always"}, "add -persist"},
		{"negative rotation", []string{"-rotate-every", "-1s"}, "-rotate-every must be ≥ 0"},
		{"rotation without cluster", []string{"-rotate-every", "1s"}, "it requires -cluster"},
		{"diff-window without target", []string{"-diff-window", "demo,1,52"}, "it requires -target"},
		{"bad target URL", []string{"-target", "ftp://host:21"}, "must use the http or https scheme"},
		{"removed -churn-batch", []string{"-churn-batch", "64"}, "flag provided but not defined: -churn-batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestRunDurableBatched: an in-process run with a per-op-durable WAL and
// batches of 8 stamps all three on its snapshot and removes the WAL's
// temporary directory; replaying the snapshot against itself passes the
// gate, and against a copy with 100× the throughput it regresses.
func TestRunDurableBatched(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", tmp)
	snapPath := filepath.Join(dir, "BENCH_run.json")
	cfg, err := parseArgs("-scenario", "ci", "-duration", "200ms", "-workers", "2",
		"-persist", "-wal-sync-always", "-batch", "8", "-rev", "test", "-out", snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	snap, err := benchkit.LoadSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Persist || !snap.WALSyncAlways || snap.Batch != 8 || snap.Driver != "inproc" {
		t.Errorf("snapshot records persist %v, wal_sync_always %v, batch %d, driver %q; want true, true, 8, inproc",
			snap.Persist, snap.WALSyncAlways, snap.Batch, snap.Driver)
	}
	if snap.Totals.Errors != 0 {
		t.Errorf("%d op errors in a clean run", snap.Totals.Errors)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("TMPDIR holds %v after the run (err %v), want nothing", left, err)
	}

	replay := func(against string) error {
		cfg, err := parseArgs("-replay", snapPath, "-compare", against)
		if err != nil {
			t.Fatal(err)
		}
		out.Reset()
		return run(cfg, &out)
	}
	if err := replay(snapPath); err != nil || !strings.Contains(out.String(), "BENCH PASS") {
		t.Fatalf("self-comparison: err %v\n%s", err, out.String())
	}
	inflated := *snap
	inflated.Totals.QPS *= 100
	inflatedPath := filepath.Join(dir, "BENCH_inflated.json")
	if err := inflated.WriteFile(inflatedPath); err != nil {
		t.Fatal(err)
	}
	if err := replay(inflatedPath); !errors.Is(err, errRegressed) || !strings.Contains(out.String(), "BENCH FAIL") {
		t.Fatalf("comparison against a 100× baseline: err %v, want errRegressed\n%s", err, out.String())
	}
	failed := *snap
	failed.Totals.Errors = 1
	failedPath := filepath.Join(dir, "BENCH_failed.json")
	if err := failed.WriteFile(failedPath); err != nil {
		t.Fatal(err)
	}
	cfg, err = parseArgs("-replay", failedPath, "-compare", snapPath)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(cfg, &out); !errors.Is(err, errRegressed) || !strings.Contains(out.String(), "BENCH FAIL: incorrect run") {
		t.Fatalf("a replayed run with a failed op: err %v, want errRegressed\n%s", err, out.String())
	}
}

// TestValidateTarget: the -target URL is checked before a run starts, so a
// typoed scheme fails immediately with a clear message instead of surfacing
// as per-op connection errors minutes into a run.
func TestValidateTarget(t *testing.T) {
	valid := []string{
		"http://127.0.0.1:8080",
		"http://localhost:8091/",
		"https://holidayd.internal",
	}
	for _, s := range valid {
		if err := validateTarget(s); err != nil {
			t.Errorf("validateTarget(%q) = %v, want nil", s, err)
		}
	}
	invalid := map[string]string{
		"127.0.0.1:8080":          "not a valid URL", // bare host:port does not parse as a URL
		"localhost:8080":          "scheme",          // parses with scheme "localhost"
		"ftp://host:21":           "scheme",          // wrong protocol
		"http://":                 "no host",         // scheme only
		"http3://example.com":     "scheme",
		"http://bad host:80/path": "not a valid URL",
	}
	for s, want := range invalid {
		err := validateTarget(s)
		if err == nil {
			t.Errorf("validateTarget(%q) accepted", s)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("validateTarget(%q) = %q, want mention of %q", s, err, want)
		}
	}
}

// TestDiffWindow: the smoke-level binary≡JSON check against a live handler,
// including spec parsing errors and a mismatching community.
func TestDiffWindow(t *testing.T) {
	reg := service.New(service.Opts{})
	if _, err := reg.Create("demo", 9, [][2]int{{0, 1}, {0, 2}}, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer srv.Close()

	if err := diffWindow(srv.URL, "demo,1,52"); err != nil {
		t.Fatalf("identical protocols diffed as different: %v", err)
	}
	for _, spec := range []string{"", "demo", "demo,1", "demo,x,2", ",1,2", "demo,1,2,3"} {
		if err := diffWindow(srv.URL, spec); err == nil {
			t.Errorf("diffWindow accepted malformed spec %q", spec)
		}
	}
	if err := diffWindow(srv.URL, "ghost,1,5"); err == nil {
		t.Error("diffWindow over an unknown community should fail")
	}
	if err := diffWindow(srv.URL, "demo,9,3"); err == nil {
		t.Error("diffWindow over an empty window should fail")
	}
}
