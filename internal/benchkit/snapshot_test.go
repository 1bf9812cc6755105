package benchkit

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sampleSnapshot builds a plausible recorded run for round-trip tests.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Schema:      SchemaVersion,
		Rev:         "abc1234",
		Timestamp:   "2026-07-29T12:00:00Z",
		Scenario:    "ci",
		Driver:      "inproc",
		Workers:     4,
		QPSTarget:   0,
		DurationSec: 2.01,
		Seed:        1,
		GoVersion:   "go1.24.0",
		Maxprocs:    4,
		Note:        "baseline",
		Totals: Metrics{
			Ops: 1_000_000, Errors: 2, QPS: 497_512.4,
			P50Micro: 1.2, P95Micro: 4.5, P99Micro: 9.8,
			CacheHitRatio: 0.996, AllocsPerOp: 2.7, BytesPerOp: 71,
		},
		PerOp: map[string]OpStats{
			"window": {Count: 700_000, P50Micro: 1.5, P95Micro: 5, P99Micro: 11},
			"next":   {Count: 200_000, P50Micro: 0.2, P95Micro: 0.4, P99Micro: 0.9},
		},
	}
}

// TestSnapshotRoundTrip: a written BENCH_*.json re-parses to the same value.
func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_abc1234.json")
	want := sampleSnapshot()
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rev != want.Rev || got.Scenario != want.Scenario || got.Driver != want.Driver ||
		got.Totals != want.Totals || got.Workers != want.Workers || got.Seed != want.Seed {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if len(got.PerOp) != len(want.PerOp) || got.PerOp["window"] != want.PerOp["window"] {
		t.Fatalf("per-op round trip mismatch: %+v", got.PerOp)
	}
}

// TestLoadSnapshotRejects: schema mismatches and empty runs fail to load.
func TestLoadSnapshotRejects(t *testing.T) {
	dir := t.TempDir()
	s := sampleSnapshot()
	s.Schema = SchemaVersion + 1
	bad := filepath.Join(dir, "bad_schema.json")
	if err := s.WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}

	s = sampleSnapshot()
	s.Totals.Ops = 0
	empty := filepath.Join(dir, "empty.json")
	if err := s.WriteFile(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(empty); err == nil {
		t.Fatal("want error for zero-op snapshot")
	}

	if _, err := LoadSnapshot(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("want error for missing file")
	}
}

// TestCompareVerdicts is the table-driven gate-policy test: throughput is
// gated at the threshold, latency/alloc metrics are informational.
func TestCompareVerdicts(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func(s *Snapshot)
		threshold float64
		wantPass  bool
	}{
		{"identical", func(*Snapshot) {}, 0.25, true},
		{"qps-up", func(s *Snapshot) { s.Totals.QPS *= 2 }, 0.25, true},
		{"qps-down-within", func(s *Snapshot) { s.Totals.QPS *= 0.80 }, 0.25, true},
		{"qps-down-beyond", func(s *Snapshot) { s.Totals.QPS *= 0.50 }, 0.25, false},
		{"qps-down-tight-threshold", func(s *Snapshot) { s.Totals.QPS *= 0.80 }, 0.10, false},
		// Latency and allocation regressions alone do not gate: they are
		// trend metrics, reported but not failed on (runner noise makes
		// them flappy at CI durations).
		{"p99-spike", func(s *Snapshot) { s.Totals.P99Micro *= 10 }, 0.25, true},
		{"allocs-spike", func(s *Snapshot) { s.Totals.AllocsPerOp *= 10 }, 0.25, true},
		// Correctness gates absolutely, whatever the throughput and the
		// threshold: a failed op, or a missed poly demand (max_gap_ratio > 1
		// over live edges), fails the run.
		{"failed-ops", func(s *Snapshot) { s.Totals.Errors = 1; s.Totals.QPS *= 2 }, 1, false},
		{"missed-demand", func(s *Snapshot) { s.Totals.Edges, s.Totals.MaxGapRatio = 40, 1.5 }, 1, false},
		{"demands-met", func(s *Snapshot) { s.Totals.Edges, s.Totals.MaxGapRatio = 40, 1 }, 0.25, true},
		{"gap-without-poly-edges", func(s *Snapshot) { s.Totals.MaxGapRatio = 3 }, 0.25, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The sample records failed ops; clear them so each case gates
			// on its own mutation alone.
			old, new := sampleSnapshot(), sampleSnapshot()
			old.Totals.Errors, new.Totals.Errors = 0, 0
			tc.mutate(new)
			cmp := Compare(old, new, tc.threshold)
			if cmp.Pass != tc.wantPass {
				t.Fatalf("pass = %v, want %v (deltas %+v)", cmp.Pass, tc.wantPass, cmp.Deltas)
			}
			var rendered strings.Builder
			cmp.Render(&rendered, tc.threshold)
			wantWord := "BENCH PASS"
			if !tc.wantPass {
				wantWord = "BENCH FAIL"
			}
			if !strings.Contains(rendered.String(), wantWord) {
				t.Fatalf("rendered verdict missing %q:\n%s", wantWord, rendered.String())
			}
		})
	}
}

// TestCompareGatesNewErrorsOnly: failed ops in the old snapshot do not
// gate; the new run's do.
func TestCompareGatesNewErrorsOnly(t *testing.T) {
	old, new := sampleSnapshot(), sampleSnapshot()
	if cmp := Compare(old, new, 0.25); cmp.Pass || len(cmp.Incorrect) != 1 {
		t.Fatalf("a new run with %d failed ops should fail as incorrect: %+v", new.Totals.Errors, cmp)
	}
	new.Totals.Errors = 0
	if cmp := Compare(old, new, 0.25); !cmp.Pass {
		t.Fatalf("a clean new run should pass whatever the old run failed: %+v", cmp)
	}
}

// TestCompareMismatch: snapshots of different scenarios or drivers are
// incomparable and fail outright.
func TestCompareMismatch(t *testing.T) {
	old, new := sampleSnapshot(), sampleSnapshot()
	new.Scenario = "mixed"
	if cmp := Compare(old, new, 0.25); cmp.Pass || cmp.Mismatch == "" {
		t.Fatalf("scenario mismatch should fail: %+v", cmp)
	}
	old, new = sampleSnapshot(), sampleSnapshot()
	new.Driver = "http"
	if cmp := Compare(old, new, 0.25); cmp.Pass || cmp.Mismatch == "" {
		t.Fatalf("driver mismatch should fail: %+v", cmp)
	}
	// Different worker counts make throughput incomparable: parallelism
	// headroom could mask a real serving regression.
	old, new = sampleSnapshot(), sampleSnapshot()
	new.Workers = old.Workers * 4
	new.Totals.QPS = old.Totals.QPS * 2
	if cmp := Compare(old, new, 0.25); cmp.Pass || cmp.Mismatch == "" {
		t.Fatalf("worker-count mismatch should fail: %+v", cmp)
	}
}

// TestHistQuantiles sanity-checks the geometric histogram against a known
// distribution: quantiles of uniform microsecond latencies land within the
// bucket resolution, and merging partial histograms equals recording into
// one.
func TestHistQuantiles(t *testing.T) {
	var whole Hist
	var parts [4]Hist
	for i := 0; i < 10_000; i++ {
		d := time.Duration(i%1000+1) * time.Microsecond
		whole.Record(d)
		parts[i%4].Record(d)
	}
	var merged Hist
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged != whole {
		t.Fatal("merged histogram differs from directly recorded one")
	}
	for _, q := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Microsecond}, {0.95, 950 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := whole.Quantile(q.q)
		if ratio := float64(got) / float64(q.want); ratio < 0.90 || ratio > 1.10 {
			t.Errorf("q%.2f = %v, want within 10%% of %v", q.q, got, q.want)
		}
	}
	var empty Hist
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram should report zero quantiles and mean")
	}
}
