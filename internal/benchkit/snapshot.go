package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// SchemaVersion identifies the BENCH_*.json layout; bump it on breaking
// changes so Compare can refuse mismatched snapshots instead of misreading
// them. History:
//
//	1: initial layout (PR 3).
//	2: adds totals.bytes_per_node and totals.recolorings_per_churn_op plus
//	   the top-level churn_frac — all additive and omitted when zero; the
//	   version records which fields a writer could have produced.
//	3: adds the top-level nodes count of sharded-cluster runs (the
//	   ClusterDriver); additive, omitted for single-target runs.
//	4: adds handoffs and handoff_pause_p99_us — the live-handoff count of a
//	   rotation run (-rotate-every) and the p99 write-unavailability window
//	   a moved community saw. Additive, omitted when placement stayed
//	   static; Compare refuses to mix rotation and static runs.
//	5: adds totals.edges and totals.max_gap_ratio of poly (edge-scheduling)
//	   scenarios — the live relationship count at run end and the worst
//	   period/demand ratio across poly communities (≤ 1 iff every demand
//	   was met). Additive, omitted for classic scenarios.
//
// Every committed snapshot was rewritten to schema 5 once, changing only
// its schema field, since the later fields of an older one read as zero;
// LoadSnapshot reads SchemaVersion alone.
const SchemaVersion = 5

// Snapshot is one recorded benchmark run — the unit of the repo's
// performance trajectory. Snapshots are committed as BENCH_<rev>.json and
// compared across revisions by the CI bench-gate.
type Snapshot struct {
	Schema    int    `json:"schema"`
	Rev       string `json:"rev"`
	Timestamp string `json:"timestamp"` // RFC3339
	Scenario  string `json:"scenario"`
	Driver    string `json:"driver"`
	Workers   int    `json:"workers"`
	// QPSTarget is the requested rate; 0 means unthrottled (measure the
	// maximum the target sustains).
	QPSTarget   float64 `json:"qps_target"`
	DurationSec float64 `json:"duration_sec"`
	Seed        uint64  `json:"seed"`
	GoVersion   string  `json:"go_version"`
	Maxprocs    int     `json:"maxprocs"`
	// Persist records whether the durability subsystem (snapshot + churn
	// WAL) was active during the run — an in-proc run with persistence
	// prices the write-ahead hot path. Informational, not a comparison
	// gate: the bench-gate deliberately compares persistence-enabled runs
	// against the pre-durability baseline to bound the WAL's cost.
	Persist bool `json:"persist,omitempty"`
	// WALSyncAlways records that the WAL fsynced every append before
	// acknowledging it (holidayload -wal-sync-always) instead of group
	// committing on a timer. Unlike Persist it IS a comparison gate:
	// per-op-durable and timer-batched throughput differ by orders of
	// magnitude, so mixing them in a comparison is meaningless.
	WALSyncAlways bool `json:"wal_sync_always,omitempty"`
	// Proto names the wire protocol of an HTTP run ("binary" for the
	// /v1/bin packed-bitmap endpoints); empty means JSON (or in-process),
	// so pre-protocol baselines stay comparable.
	Proto string `json:"proto,omitempty"`
	// Batch is the ops-per-request grouping of a batched binary run; 0
	// means unbatched.
	Batch int `json:"batch,omitempty"`
	// Nodes is the member count of a sharded-cluster run (the
	// ClusterDriver): reads fan out across this many daemons. 0 for
	// single-target runs. Node counts must match for a comparison to be
	// meaningful, so Compare gates on it (schema ≥ 3).
	Nodes int `json:"nodes,omitempty"`
	// Handoffs counts the live community handoffs a rotation run triggered
	// mid-measurement (holidayload -rotate-every); 0 means placement stayed
	// static. Rotation perturbs throughput, so Compare refuses to gate a
	// rotation run against a static baseline (schema ≥ 4).
	Handoffs int `json:"handoffs,omitempty"`
	// HandoffPauseP99Micro is the p99 write-unavailability window (µs) a
	// moved community saw across the run's handoffs: the time from fencing
	// on the old owner to the new owner's ack, during which that one
	// community's writes fail or forward and every read still serves.
	HandoffPauseP99Micro float64 `json:"handoff_pause_p99_us,omitempty"`
	// ChurnFrac is the fraction of ops dedicated to churn when the
	// scenario's mix was derived via WithChurnFraction; 0 for hand-set
	// mixes. Differing fractions make throughput incomparable, so Compare
	// gates on it.
	ChurnFrac float64 `json:"churn_frac,omitempty"`
	// Note carries free-form context, e.g. before/after numbers of the
	// optimization a revision landed.
	Note   string             `json:"note,omitempty"`
	Totals Metrics            `json:"totals"`
	PerOp  map[string]OpStats `json:"per_op"`
}

// Metrics are the run-wide aggregates the regression gate inspects.
type Metrics struct {
	Ops    int64 `json:"ops"`
	Errors int64 `json:"errors"`
	// QPS is successfully served ops per second over the measured run —
	// the gated throughput metric. Errored ops are excluded so failing
	// fast never reads as throughput.
	QPS      float64 `json:"qps"`
	P50Micro float64 `json:"p50_us"`
	P95Micro float64 `json:"p95_us"`
	P99Micro float64 `json:"p99_us"`
	// CacheHitRatio is hits/(hits+misses) of the frozen-schedule cache
	// accumulated across the scenario's communities during the run.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// AllocsPerOp and BytesPerOp come from runtime.MemStats deltas and are
	// only meaningful for the in-process driver (they include load-generator
	// overhead on the HTTP driver).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// BytesPerNode is the live-heap cost of holding the scenario's
	// communities, measured as the GC-settled heap delta across Setup
	// divided by the total family count — the resident-memory metric the
	// mega family exists to track. In-process runs only; 0 when
	// unmeasurable (schema ≥ 2).
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
	// RecoloringsPerChurnOp is the §6 recoloring events the run triggered
	// per churn op served — the amortized repair cost the paper bounds.
	// Recorded when the driver reports recoloring counters and the mix
	// includes churn; 0 otherwise (schema ≥ 2).
	RecoloringsPerChurnOp float64 `json:"recolorings_per_churn_op,omitempty"`
	// Edges is the total live edge count across the scenario's poly
	// communities at run end; 0 for classic scenarios (schema ≥ 5).
	Edges int64 `json:"edges,omitempty"`
	// MaxGapRatio is the worst period/demand ratio across the scenario's
	// poly communities at run end: ≤ 1 iff every per-edge demand was still
	// met after the run's churn. 0 for classic scenarios (schema ≥ 5).
	MaxGapRatio float64 `json:"max_gap_ratio,omitempty"`
}

// OpStats is the per-op-kind latency breakdown.
type OpStats struct {
	Count    int64   `json:"count"`
	Errors   int64   `json:"errors"`
	P50Micro float64 `json:"p50_us"`
	P95Micro float64 `json:"p95_us"`
	P99Micro float64 `json:"p99_us"`
}

// WriteFile writes the snapshot as indented JSON (stable key order via the
// struct layout) to path.
func (s *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadSnapshot reads and validates a snapshot file.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("benchkit: %s has schema %d, this build reads %d", path, s.Schema, SchemaVersion)
	}
	if s.Totals.Ops <= 0 {
		return nil, fmt.Errorf("benchkit: %s records no completed ops", path)
	}
	return &s, nil
}

// Delta is one metric of a snapshot comparison. Pct is the relative change
// new vs old (positive = the number went up). Gated marks the metrics whose
// regression fails the comparison; the others are informational.
type Delta struct {
	Metric    string
	Old, New  float64
	Pct       float64
	Gated     bool
	Regressed bool
}

// Comparison is the verdict of comparing a new snapshot against an old one.
type Comparison struct {
	Deltas []Delta
	// Pass is false when a gated metric regressed beyond the threshold or
	// the new run is incorrect.
	Pass bool
	// Mismatch notes scenario/driver differences that make the numbers
	// incomparable; a mismatch fails the comparison outright.
	Mismatch string
	// Incorrect names what makes the new run wrong rather than slow: failed
	// ops, or a poly demand missed (max_gap_ratio > 1). Correctness gates
	// absolutely, whatever the threshold and the old snapshot say.
	Incorrect []string
}

// Compare evaluates new against old with the given regression threshold
// (0.25 = fail on >25% drop). Throughput (qps) is the gated metric — the
// threshold is deliberately generous so shared-runner noise does not flap
// the CI gate — while latency quantiles, cache hit ratio, and allocation
// counts are reported for trend reading. Correctness gates absolutely: the
// new run fails with any failed op, or with max_gap_ratio > 1 when it
// scheduled poly edges.
func Compare(old, new *Snapshot, threshold float64) *Comparison {
	cmp := &Comparison{Pass: true}
	if old.Scenario != new.Scenario || old.Driver != new.Driver {
		cmp.Mismatch = fmt.Sprintf("scenario/driver mismatch: old ran %s on %s, new ran %s on %s",
			old.Scenario, old.Driver, new.Scenario, new.Driver)
		cmp.Pass = false
		return cmp
	}
	if old.Workers != new.Workers {
		cmp.Mismatch = fmt.Sprintf("worker-count mismatch: old ran %d workers, new ran %d — throughput is not comparable (rerun with -workers %d)",
			old.Workers, new.Workers, old.Workers)
		cmp.Pass = false
		return cmp
	}
	if old.Proto != new.Proto {
		cmp.Mismatch = fmt.Sprintf("protocol mismatch: old ran %s, new ran %s — binary and JSON throughput are not comparable",
			protoLabel(old.Proto), protoLabel(new.Proto))
		cmp.Pass = false
		return cmp
	}
	if old.Batch != new.Batch {
		cmp.Mismatch = fmt.Sprintf("batch mismatch: old grouped %d ops per request, new %d — rerun with -batch %d",
			max(old.Batch, 1), max(new.Batch, 1), max(old.Batch, 1))
		cmp.Pass = false
		return cmp
	}
	if old.Nodes != new.Nodes {
		cmp.Mismatch = fmt.Sprintf("cluster-size mismatch: old ran %d nodes, new ran %d — read fan-out makes throughput incomparable",
			old.Nodes, new.Nodes)
		cmp.Pass = false
		return cmp
	}
	if (old.Handoffs == 0) != (new.Handoffs == 0) {
		cmp.Mismatch = fmt.Sprintf("rotation mismatch: old ran %d mid-run handoffs, new ran %d — placement churn makes throughput incomparable",
			old.Handoffs, new.Handoffs)
		cmp.Pass = false
		return cmp
	}
	if old.ChurnFrac != new.ChurnFrac {
		cmp.Mismatch = fmt.Sprintf("churn-fraction mismatch: old ran %v, new ran %v — write-heavy and read-heavy throughput are not comparable",
			old.ChurnFrac, new.ChurnFrac)
		cmp.Pass = false
		return cmp
	}
	if old.WALSyncAlways != new.WALSyncAlways {
		cmp.Mismatch = fmt.Sprintf("WAL sync-policy mismatch: old ran sync-always=%v, new ran sync-always=%v — per-op-durable and group-committed throughput are not comparable",
			old.WALSyncAlways, new.WALSyncAlways)
		cmp.Pass = false
		return cmp
	}
	add := func(metric string, o, n float64, gated, lowerIsBetter bool) {
		d := Delta{Metric: metric, Old: o, New: n, Gated: gated}
		if o != 0 {
			d.Pct = (n - o) / o
		}
		if gated && o > 0 {
			if lowerIsBetter {
				d.Regressed = n > o*(1+threshold)
			} else {
				d.Regressed = n < o*(1-threshold)
			}
			if d.Regressed {
				cmp.Pass = false
			}
		}
		cmp.Deltas = append(cmp.Deltas, d)
	}
	add("qps", old.Totals.QPS, new.Totals.QPS, true, false)
	add("p50_us", old.Totals.P50Micro, new.Totals.P50Micro, false, true)
	add("p95_us", old.Totals.P95Micro, new.Totals.P95Micro, false, true)
	add("p99_us", old.Totals.P99Micro, new.Totals.P99Micro, false, true)
	add("cache_hit_ratio", old.Totals.CacheHitRatio, new.Totals.CacheHitRatio, false, false)
	add("allocs_per_op", old.Totals.AllocsPerOp, new.Totals.AllocsPerOp, false, true)
	add("bytes_per_op", old.Totals.BytesPerOp, new.Totals.BytesPerOp, false, true)
	add("errors", float64(old.Totals.Errors), float64(new.Totals.Errors), false, true)
	if old.Totals.Edges != 0 || new.Totals.Edges != 0 {
		add("edges", float64(old.Totals.Edges), float64(new.Totals.Edges), false, false)
		add("max_gap_ratio", old.Totals.MaxGapRatio, new.Totals.MaxGapRatio, false, true)
	}
	if new.Totals.Errors > 0 {
		cmp.Incorrect = append(cmp.Incorrect, fmt.Sprintf("errors = %d, want 0", new.Totals.Errors))
	}
	if new.Totals.Edges > 0 && new.Totals.MaxGapRatio > 1 {
		cmp.Incorrect = append(cmp.Incorrect, fmt.Sprintf("max_gap_ratio = %.4g over %d poly edges, want ≤ 1",
			new.Totals.MaxGapRatio, new.Totals.Edges))
	}
	cmp.Pass = cmp.Pass && len(cmp.Incorrect) == 0
	return cmp
}

// Render prints the comparison as an aligned table plus verdict line
// ("BENCH PASS"/"BENCH FAIL", the strings the CI gate greps).
func (c *Comparison) Render(w io.Writer, threshold float64) {
	if c.Mismatch != "" {
		fmt.Fprintf(w, "BENCH FAIL: %s\n", c.Mismatch)
		return
	}
	fmt.Fprintf(w, "%-16s %14s %14s %9s  %s\n", "metric", "old", "new", "delta", "gate")
	for _, d := range c.Deltas {
		gate := ""
		if d.Gated {
			gate = fmt.Sprintf("±%.0f%%", threshold*100)
			if d.Regressed {
				gate += "  REGRESSED"
			}
		}
		fmt.Fprintf(w, "%-16s %14.2f %14.2f %+8.1f%%  %s\n", d.Metric, d.Old, d.New, d.Pct*100, gate)
	}
	for _, msg := range c.Incorrect {
		fmt.Fprintf(w, "BENCH FAIL: incorrect run: %s\n", msg)
	}
	if c.Pass {
		fmt.Fprintln(w, "BENCH PASS: no gated metric regressed beyond threshold")
	} else if len(c.Incorrect) == 0 {
		fmt.Fprintln(w, "BENCH FAIL: gated metric regressed beyond threshold")
	}
}

// protoLabel names a snapshot's protocol field for messages (empty = JSON).
func protoLabel(p string) string {
	if p == "" {
		return "json"
	}
	return p
}

// opNames returns the per-op keys of a snapshot, sorted, for stable output.
func opNames(per map[string]OpStats) []string {
	names := make([]string, 0, len(per))
	for k := range per {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// RenderSnapshot prints a human-readable summary of one run.
func RenderSnapshot(w io.Writer, s *Snapshot) {
	fmt.Fprintf(w, "scenario %s on %s driver: %d workers, %.1fs, rev %s\n",
		s.Scenario, s.Driver, s.Workers, s.DurationSec, s.Rev)
	fmt.Fprintf(w, "  ops %d (errors %d)  qps %.0f  p50 %.0fµs  p95 %.0fµs  p99 %.0fµs\n",
		s.Totals.Ops, s.Totals.Errors, s.Totals.QPS, s.Totals.P50Micro, s.Totals.P95Micro, s.Totals.P99Micro)
	fmt.Fprintf(w, "  cache hit ratio %.4f  allocs/op %.1f  bytes/op %.0f\n",
		s.Totals.CacheHitRatio, s.Totals.AllocsPerOp, s.Totals.BytesPerOp)
	if s.Handoffs > 0 {
		fmt.Fprintf(w, "  handoffs %d  pause p99 %.0fµs\n", s.Handoffs, s.HandoffPauseP99Micro)
	}
	for _, k := range opNames(s.PerOp) {
		o := s.PerOp[k]
		fmt.Fprintf(w, "  %-8s count %-9d p50 %.0fµs  p95 %.0fµs  p99 %.0fµs\n",
			k, o.Count, o.P50Micro, o.P95Micro, o.P99Micro)
	}
}
