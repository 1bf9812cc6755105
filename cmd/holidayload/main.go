// Command holidayload is the load generator and perf tracker for the
// serving layer: it drives a named multi-community workload (mixes of
// window, next-happy, and marry/divorce churn ops over G(n,p)/ring/clique
// communities) either in-process against a fresh service.Owner or over
// HTTP against a live holidayd, records latency quantiles, throughput,
// cache hit ratio, and allocation counts into a BENCH_<rev>.json snapshot,
// and can compare the run against a prior snapshot with a regression
// verdict (the CI bench-gate).
//
// Usage:
//
//	holidayload -scenario ci -duration 2s            # in-process, write BENCH_<rev>.json
//	holidayload -scenario mixed -target http://127.0.0.1:8080
//	holidayload -scenario read -target http://127.0.0.1:8080 -proto binary -batch 16
//	holidayload -scenario mixed -churn-frac 0.5 -churn-batch 64 -persist
//	holidayload -scenario mega -duration 20s
//	holidayload -scenario mega-ci -cluster nodes.json -rotate-every 2s
//	holidayload -scenario read -qps 5000 -workers 8
//	holidayload -scenario ci -compare BENCH_baseline.json -threshold 0.25
//	holidayload -replay BENCH_pr.json -compare BENCH_baseline.json
//	holidayload -diff-window demo,1,52 -target http://127.0.0.1:8091
//	holidayload -list
//
// -proto binary drives window and next queries through the /v1/bin
// packed-bitmap endpoints (DESIGN.md §9); -batch N pipelines N ops per
// request, and batched binary runs route churn through /v1/bin/churn so the
// server amortizes each community's edits into one flush (DESIGN.md §10).
// -churn-batch N is the in-process equivalent: ops are grouped into batches
// of N and churn is applied through Community.ChurnBatch. -churn-frac F
// rebalances any scenario's op mix so fraction F of ops are churn.
// -diff-window fetches one window over both protocols and fails unless they
// decode identically — the smoke-level differential check.
//
// Exit status: 0 on success (and a passing comparison), 1 on usage or run
// errors, 2 when -compare detects a regression beyond the threshold.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchkit"
	"repro/internal/service"
	"repro/internal/wire"
)

func main() {
	var (
		scenario   = flag.String("scenario", "ci", "named workload to run (see -list)")
		list       = flag.Bool("list", false, "list the known scenarios and exit")
		duration   = flag.Duration("duration", 0, "measured run length (default: the scenario's)")
		qps        = flag.Float64("qps", 0, "aggregate target rate; 0 = unthrottled")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent load workers")
		seed       = flag.Uint64("seed", 1, "seed for community generation and op streams")
		target     = flag.String("target", "", "drive a live holidayd at this base URL instead of in-process")
		clusterTop = flag.String("cluster", "", "drive a holidayd cluster from this topology file (nodes.json): writes route to owners, reads fan out over members")
		proto      = flag.String("proto", "json", "wire protocol for window/next queries with -target: json or binary")
		batch      = flag.Int("batch", 1, "ops per request (requires -proto binary); 1 = unbatched")
		churnBatch = flag.Int("churn-batch", 1,
			"group ops into batches of this size for in-process runs, amortizing churn through the batched write path; 1 = per-op")
		churnFrac = flag.Float64("churn-frac", -1,
			"override the scenario's churn fraction with a value in [0,1], preserving its read and churn ratios; negative keeps the scenario's own mix")
		diffWin    = flag.String("diff-window", "", "fetch one window as \"community,from,to\" over both protocols and diff them (requires -target)")
		persist    = flag.Bool("persist", false, "enable the durability WAL on the in-process registry (prices the write-ahead hot path; ignored with -target)")
		syncAlways = flag.Bool("wal-sync-always", false,
			"with -persist, fsync every WAL append before acking (per-op durability) instead of timer group commit — the regime where -churn-batch amortization matters most")
		rotateEvery = flag.Duration("rotate-every", 0,
			"with -cluster, live-move one community to another node at this interval during the measured run, recording the handoff count and write-pause p99 in the snapshot; 0 = static placement")
		out       = flag.String("out", "", "snapshot output path (default BENCH_<rev>.json; \"-\" skips writing)")
		replay    = flag.String("replay", "", "load the current snapshot from a file instead of running")
		compare   = flag.String("compare", "", "prior snapshot to compare against; regression fails the exit status")
		threshold = flag.Float64("threshold", 0.25, "gated-metric regression tolerance for -compare (0.25 = 25%)")
		note      = flag.String("note", "", "free-form note recorded in the snapshot")
		rev       = flag.String("rev", "", "revision label for the snapshot (default: git short rev)")
	)
	flag.Parse()
	if *list {
		for _, sc := range benchkit.Scenarios() {
			fmt.Printf("%-8s %s (%d communities, default %s)\n", sc.Name, sc.Desc, len(sc.Communities), sc.Duration)
		}
		return
	}
	// Numeric flags fail loudly instead of silently defaulting: a CI job
	// that typos -workers 0 should not gate on a one-worker run.
	if *workers < 1 {
		usageError("-workers must be ≥ 1, got %d", *workers)
	}
	if *qps < 0 {
		usageError("-qps must be ≥ 0, got %g", *qps)
	}
	if *duration < 0 {
		usageError("-duration must be positive, got %s", *duration)
	}
	if *threshold <= 0 || *threshold >= 1 {
		usageError("-threshold must be in (0,1), got %g", *threshold)
	}
	if *replay != "" && (*target != "" || *duration != 0) {
		usageError("-replay loads a recorded snapshot; it cannot be combined with -target or -duration")
	}
	// The target URL is validated before any run or diff starts: a typoed
	// scheme used to surface minutes later as a per-op connection error.
	if *target != "" {
		if err := validateTarget(*target); err != nil {
			usageError("%v", err)
		}
	}
	if *proto != benchkit.ProtoJSON && *proto != benchkit.ProtoBinary {
		usageError("-proto must be %q or %q, got %q", benchkit.ProtoJSON, benchkit.ProtoBinary, *proto)
	}
	if *proto == benchkit.ProtoBinary && *target == "" && *clusterTop == "" {
		usageError("-proto binary drives a live holidayd's /v1/bin endpoints; it requires -target or -cluster")
	}
	if *batch < 1 {
		usageError("-batch must be ≥ 1, got %d", *batch)
	}
	if *batch > 1 && *proto != benchkit.ProtoBinary {
		usageError("-batch groups frames of the binary protocol; add -proto binary")
	}
	if *churnBatch < 1 {
		usageError("-churn-batch must be ≥ 1, got %d", *churnBatch)
	}
	if *churnBatch > 1 && (*target != "" || *clusterTop != "") {
		usageError("-churn-batch batches the in-process write path; against a live holidayd use -batch with -proto binary")
	}
	if *churnBatch > 1 && *batch > 1 {
		usageError("-churn-batch and -batch both set the batch size; use one")
	}
	if *churnFrac > 1 {
		usageError("-churn-frac must be in [0,1], got %g", *churnFrac)
	}
	if *syncAlways && !*persist {
		usageError("-wal-sync-always tunes the durability WAL; add -persist")
	}
	if *rotateEvery < 0 {
		usageError("-rotate-every must be ≥ 0, got %s", *rotateEvery)
	}
	if *rotateEvery > 0 && *clusterTop == "" {
		usageError("-rotate-every moves communities between cluster members; it requires -cluster")
	}
	if *diffWin != "" {
		if *target == "" {
			usageError("-diff-window compares a live holidayd's two protocols; it requires -target")
		}
		if err := diffWindow(*target, *diffWin); err != nil {
			fatal(err)
		}
		fmt.Printf("diff-window %s: binary and JSON windows are identical\n", *diffWin)
		return
	}

	var snap *benchkit.Snapshot
	var err error
	if *replay != "" {
		snap, err = benchkit.LoadSnapshot(*replay)
		if err != nil {
			fatal(err)
		}
	} else {
		sc, err := benchkit.ScenarioByName(*scenario)
		if err != nil {
			fatal(err)
		}
		if *churnFrac >= 0 {
			if sc, err = sc.WithChurnFraction(*churnFrac); err != nil {
				fatal(err)
			}
		}
		var driver benchkit.Driver
		var clusterDriver *benchkit.ClusterDriver
		if *clusterTop != "" {
			if *target != "" {
				usageError("-cluster and -target are mutually exclusive")
			}
			if *persist {
				usageError("-persist only applies to in-process runs; a cluster's durability is each daemon's -data-dir")
			}
			topo, err := service.LoadTopology(*clusterTop)
			if err != nil {
				fatal(err)
			}
			clusterDriver, err = benchkit.NewClusterDriver(topo, *workers)
			if err != nil {
				fatal(err)
			}
			clusterDriver.Proto = *proto
			driver = clusterDriver
		} else if *target != "" {
			if *persist {
				usageError("-persist only applies to in-process runs; a live holidayd's durability is its own -data-dir")
			}
			httpDriver := benchkit.NewHTTPDriver(*target, *workers)
			httpDriver.Proto = *proto
			driver = httpDriver
		} else {
			inproc := benchkit.NewInProcDriver(service.New(service.Opts{}))
			inproc.ForcePersist = *persist
			inproc.SyncEveryOp = *syncAlways
			driver = inproc
		}
		// Cluster runs verify the replication contract up front: an owner's
		// acked write (its journal sequence) must become visible on every
		// replica, byte-identically, before the measured run trusts
		// replica-served reads.
		if clusterDriver != nil {
			if _, err := clusterDriver.Setup(sc, *seed); err != nil {
				fatal(err)
			}
			id := sc.Communities[0].ID
			if err := clusterDriver.VerifyReadYourWrites(id, 15*time.Second); err != nil {
				fatal(err)
			}
			fmt.Printf("read-your-writes verified on %q across %d nodes\n", id, clusterDriver.NodeCount())
		}
		if *rev == "" {
			*rev = gitRev()
		}
		opt := benchkit.Options{
			Duration: *duration,
			Workers:  *workers,
			QPS:      *qps,
			Seed:     *seed,
			Batch:    max(*batch, *churnBatch),
			Rev:      *rev,
			Note:     *note,
		}
		// Placement rotation runs beside the measured load: a ticker moves
		// one community per interval through a live handoff, and the
		// snapshot records how many moves ran and the p99 write pause they
		// cost — the number the epoch plane is supposed to keep small.
		var stopRotate func()
		if *rotateEvery > 0 {
			stopRotate = startRotation(clusterDriver, *rotateEvery)
		}
		snap, err = benchkit.Run(sc, driver, opt)
		if stopRotate != nil {
			stopRotate()
		}
		if err != nil {
			fatal(err)
		}
		if clusterDriver != nil {
			if pauses := clusterDriver.HandoffPauses(); len(pauses) > 0 {
				snap.Handoffs = len(pauses)
				snap.HandoffPauseP99Micro = benchkit.PauseP99(pauses)
			}
		}
		benchkit.RenderSnapshot(os.Stdout, snap)
		if *out != "-" {
			path := *out
			if path == "" {
				path = "BENCH_" + sanitize(snap.Rev) + ".json"
			}
			if err := snap.WriteFile(path); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	if *compare == "" {
		return
	}
	old, err := benchkit.LoadSnapshot(*compare)
	if err != nil {
		fatal(err)
	}
	cmp := benchkit.Compare(old, snap, *threshold)
	fmt.Printf("\ncomparing against %s (rev %s, %s):\n", *compare, old.Rev, old.Timestamp)
	cmp.Render(os.Stdout, *threshold)
	if !cmp.Pass {
		os.Exit(2)
	}
}

// startRotation moves one community per tick until the returned stop
// function is called. Failed moves are reported but do not abort the run —
// only completed handoffs count toward the snapshot's rotation metrics.
func startRotation(d *benchkit.ClusterDriver, every time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if err := d.Rotate(ctx); err != nil && ctx.Err() == nil {
					fmt.Fprintln(os.Stderr, "holidayload: rotation:", err)
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// validateTarget checks a -target base URL up front: an absolute http(s)
// URL with a host.
func validateTarget(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return fmt.Errorf("-target %q is not a valid URL: %v", s, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("-target %q must use the http or https scheme, got %q", s, u.Scheme)
	}
	if u.Host == "" {
		return fmt.Errorf("-target %q has no host (use e.g. http://127.0.0.1:8080)", s)
	}
	return nil
}

// jsonWindow mirrors the JSON window payload for the diff.
type jsonWindow struct {
	From     int64 `json:"from"`
	To       int64 `json:"to"`
	Holidays []struct {
		Holiday int64 `json:"holiday"`
		Happy   []int `json:"happy"`
	} `json:"holidays"`
}

// diffWindow fetches one window over both protocols from a live holidayd
// and errors unless they decode to the same schedule — the smoke-level
// binary≡JSON check (the exhaustive differential proof lives in the tests).
func diffWindow(target, spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return fmt.Errorf(`-diff-window wants "community,from,to", got %q`, spec)
	}
	id := parts[0]
	from, err1 := strconv.ParseInt(parts[1], 10, 64)
	to, err2 := strconv.ParseInt(parts[2], 10, 64)
	if id == "" || err1 != nil || err2 != nil {
		return fmt.Errorf(`-diff-window wants "community,from,to" with integer bounds, got %q`, spec)
	}
	base := strings.TrimRight(target, "/")

	resp, err := http.Get(fmt.Sprintf("%s/v1/communities/%s/window?from=%d&to=%d", base, url.PathEscape(id), from, to))
	if err != nil {
		return err
	}
	jsonBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("JSON window query: status %d: %s", resp.StatusCode, bytes.TrimSpace(jsonBody))
	}
	var jw jsonWindow
	if err := json.Unmarshal(jsonBody, &jw); err != nil {
		return fmt.Errorf("JSON window decode: %v", err)
	}

	resp, err = http.Post(base+"/v1/bin/window", "application/octet-stream",
		bytes.NewReader(wire.AppendWindowReq(nil, id, from, to)))
	if err != nil {
		return err
	}
	binBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("binary window query: status %d: %s", resp.StatusCode, bytes.TrimSpace(binBody))
	}
	f, rest, err := wire.Split(binBody)
	if err != nil || len(rest) != 0 {
		return fmt.Errorf("binary window framing: %v (%d stray bytes)", err, len(rest))
	}
	if f.Kind == wire.KindError {
		status, code, msg, _ := f.ErrorResp()
		return fmt.Errorf("binary window query failed in-band: status %d (code %d): %s", status, code, msg)
	}
	wr, err := f.WindowResp()
	if err != nil {
		return err
	}

	if wr.From != jw.From || wr.Rows != len(jw.Holidays) {
		return fmt.Errorf("window shape differs: binary from=%d rows=%d, JSON from=%d rows=%d",
			wr.From, wr.Rows, jw.From, len(jw.Holidays))
	}
	var happy []int
	for i, row := range jw.Holidays {
		if wr.Holiday(i) != row.Holiday {
			return fmt.Errorf("row %d: binary holiday %d, JSON holiday %d", i, wr.Holiday(i), row.Holiday)
		}
		happy = wr.AppendHappy(happy[:0], i)
		if len(happy) != len(row.Happy) {
			return fmt.Errorf("holiday %d: binary happy set %v, JSON %v", row.Holiday, happy, row.Happy)
		}
		for j := range happy {
			if happy[j] != row.Happy[j] {
				return fmt.Errorf("holiday %d: binary happy set %v, JSON %v", row.Holiday, happy, row.Happy)
			}
		}
	}
	return nil
}

// gitRev labels snapshots with the working tree's short revision, falling
// back to "dev" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

// sanitize keeps revision labels filename-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// usageError reports a flag mistake and exits 1.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "holidayload: "+format+"\n", args...)
	flag.Usage()
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "holidayload:", err)
	os.Exit(1)
}
