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
//	holidayload -scenario mixed -churn-frac 0.5 -batch 64 -persist
//	holidayload -scenario mega -duration 20s
//	holidayload -scenario mega-ci -cluster nodes.json -rotate-every 2s
//	holidayload -scenario read -qps 5000 -workers 8
//	holidayload -scenario ci -compare BENCH_baseline.json -threshold 0.25
//	holidayload -replay BENCH_pr.json -compare BENCH_baseline.json
//	holidayload -diff-window demo,1,52 -target http://127.0.0.1:8091
//	holidayload -list
//
// -proto binary drives window and next queries through the /v1/bin
// packed-bitmap endpoints (DESIGN.md §9). -batch N groups N ops per call for
// every driver: in-process, each batch's churn goes through
// Community.ChurnBatch; against a live holidayd it requires -proto binary,
// and batched binary runs route churn through /v1/bin/churn so the server
// amortizes each community's edits into one flush (DESIGN.md §10).
// -persist journals the in-process registry to a WAL in a temporary
// directory, removed when the run ends. -churn-frac F rebalances any
// scenario's op mix so fraction F of ops are churn. -diff-window fetches one
// window over both protocols and fails unless they decode identically — the
// smoke-level differential check.
//
// Exit status: 0 on success (and a passing comparison), 1 on usage or run
// errors, 2 when -compare fails (a regression, or an incorrect new run).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/wire"
)

func main() {
	cfg, err := parseConfig(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "holidayload:", err)
		flag.Usage()
		os.Exit(1)
	}
	err = run(cfg, os.Stdout)
	if errors.Is(err, errRegressed) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "holidayload:", err)
		os.Exit(1)
	}
}

// errRegressed is run's result when -compare fails the new run (regressed,
// incomparable or incorrect); the verdict itself is already printed.
var errRegressed = errors.New("comparison failed: a regression, incomparable snapshots or an incorrect run")

// config is holidayload's command line.
type config struct {
	scenario    string
	list        bool
	duration    time.Duration
	qps         float64
	workers     int
	seed        uint64
	target      string
	cluster     string
	proto       string
	batch       int
	churnFrac   float64
	diffWindow  string
	persist     bool
	syncAlways  bool
	rotateEvery time.Duration
	out         string
	replay      string
	compare     string
	threshold   float64
	note        string
	rev         string
}

// parseConfig binds holidayload's flags on fs, parses args into a config,
// and validates it.
func parseConfig(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{}
	fs.StringVar(&c.scenario, "scenario", "ci", "named workload to run (see -list)")
	fs.BoolVar(&c.list, "list", false, "list the known scenarios and exit")
	fs.DurationVar(&c.duration, "duration", 0, "measured run length (default: the scenario's)")
	fs.Float64Var(&c.qps, "qps", 0, "aggregate target rate; 0 = unthrottled")
	fs.IntVar(&c.workers, "workers", runtime.GOMAXPROCS(0), "concurrent load workers")
	fs.Uint64Var(&c.seed, "seed", 1, "seed for community generation and op streams")
	fs.StringVar(&c.target, "target", "", "drive a live holidayd at this base URL instead of in-process")
	fs.StringVar(&c.cluster, "cluster", "", "drive a holidayd cluster from this topology file (nodes.json): writes route to owners, reads fan out over members")
	fs.StringVar(&c.proto, "proto", benchkit.ProtoJSON, "wire protocol for window/next queries with -target or -cluster: json or binary")
	fs.IntVar(&c.batch, "batch", 1,
		"ops per call, 1 = unbatched; in-process, each batch's churn goes through the batched write path; against a live holidayd it requires -proto binary")
	fs.Float64Var(&c.churnFrac, "churn-frac", -1,
		"override the scenario's churn fraction with a value in [0,1], preserving its read and churn ratios; negative keeps the scenario's own mix")
	fs.StringVar(&c.diffWindow, "diff-window", "", "fetch one window as \"community,from,to\" over both protocols and diff them (requires -target)")
	fs.BoolVar(&c.persist, "persist", false, "journal the in-process registry to a WAL in a temporary directory (prices the write-ahead hot path)")
	fs.BoolVar(&c.syncAlways, "wal-sync-always", false,
		"with -persist, fsync every WAL append before acking (per-op durability) instead of timer group commit — the regime where -batch amortization matters most")
	fs.DurationVar(&c.rotateEvery, "rotate-every", 0,
		"with -cluster, live-move one community to another node at this interval during the measured run, recording the handoff count and write-pause p99 in the snapshot; 0 = static placement")
	fs.StringVar(&c.out, "out", "", "snapshot output path (default BENCH_<rev>.json; \"-\" skips writing)")
	fs.StringVar(&c.replay, "replay", "", "load the current snapshot from a file instead of running")
	fs.StringVar(&c.compare, "compare", "", "prior snapshot to compare against; a regression or an incorrect run fails the exit status")
	fs.Float64Var(&c.threshold, "threshold", 0.25, "gated-metric regression tolerance for -compare (0.25 = 25%)")
	fs.StringVar(&c.note, "note", "", "free-form note recorded in the snapshot")
	fs.StringVar(&c.rev, "rev", "", "revision label for the snapshot (default: git short rev)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// A replayed snapshot was shaped when it was recorded: of the flags
	// set, only those that compare it may stand beside -replay.
	var shaping []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "replay" && f.Name != "compare" && f.Name != "threshold" {
			shaping = append(shaping, "-"+f.Name)
		}
	})
	if c.replay != "" && len(shaping) > 0 {
		return nil, fmt.Errorf("-replay loads a recorded snapshot; it cannot be combined with %s", strings.Join(shaping, " "))
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate checks the rules the flags state without reading any file or
// contacting any target. Numeric flags fail loudly instead of silently
// defaulting: a CI job that typos -workers 0 should not gate on a
// one-worker run. The target URL is checked here too: a typoed scheme used
// to surface minutes later as a per-op connection error.
func (c *config) validate() error {
	live := c.target != "" || c.cluster != ""
	switch {
	case c.workers < 1:
		return fmt.Errorf("-workers must be ≥ 1, got %d", c.workers)
	case c.qps < 0:
		return fmt.Errorf("-qps must be ≥ 0, got %g", c.qps)
	case c.duration < 0:
		return fmt.Errorf("-duration must be positive, got %s", c.duration)
	case c.threshold <= 0 || c.threshold >= 1:
		return fmt.Errorf("-threshold must be in (0,1), got %g", c.threshold)
	case c.target != "" && c.cluster != "":
		return errors.New("-cluster and -target are mutually exclusive")
	case c.proto != benchkit.ProtoJSON && c.proto != benchkit.ProtoBinary:
		return fmt.Errorf("-proto must be %q or %q, got %q", benchkit.ProtoJSON, benchkit.ProtoBinary, c.proto)
	case c.proto == benchkit.ProtoBinary && !live:
		return errors.New("-proto binary drives a live holidayd's /v1/bin endpoints; it requires -target or -cluster")
	case c.batch < 1:
		return fmt.Errorf("-batch must be ≥ 1, got %d", c.batch)
	case c.batch > 1 && live && c.proto != benchkit.ProtoBinary:
		return errors.New("-batch against a live holidayd groups frames of the binary protocol; add -proto binary")
	case c.churnFrac > 1:
		return fmt.Errorf("-churn-frac must be in [0,1], got %g", c.churnFrac)
	case c.persist && live:
		return errors.New("-persist only applies to in-process runs; a live holidayd's durability is its own -data-dir")
	case c.syncAlways && !c.persist:
		return errors.New("-wal-sync-always tunes the durability WAL; add -persist")
	case c.rotateEvery < 0:
		return fmt.Errorf("-rotate-every must be ≥ 0, got %s", c.rotateEvery)
	case c.rotateEvery > 0 && c.cluster == "":
		return errors.New("-rotate-every moves communities between cluster members; it requires -cluster")
	case c.diffWindow != "" && c.target == "":
		return errors.New("-diff-window compares a live holidayd's two protocols; it requires -target")
	case c.target != "":
		return validateTarget(c.target)
	}
	return nil
}

// run carries out cfg and writes its report to w. A failing -compare
// verdict, a regression or an incorrect run, returns errRegressed.
func run(cfg *config, w io.Writer) error {
	if cfg.list {
		for _, sc := range benchkit.Scenarios() {
			fmt.Fprintf(w, "%-8s %s (%d communities, default %s)\n", sc.Name, sc.Desc, len(sc.Communities), sc.Duration)
		}
		return nil
	}
	if cfg.diffWindow != "" {
		if err := diffWindow(cfg.target, cfg.diffWindow); err != nil {
			return err
		}
		fmt.Fprintf(w, "diff-window %s: binary and JSON windows are identical\n", cfg.diffWindow)
		return nil
	}
	var snap *benchkit.Snapshot
	var err error
	if cfg.replay != "" {
		snap, err = benchkit.LoadSnapshot(cfg.replay)
	} else {
		snap, err = record(cfg, w)
	}
	if err != nil {
		return err
	}
	if cfg.compare == "" {
		return nil
	}
	old, err := benchkit.LoadSnapshot(cfg.compare)
	if err != nil {
		return err
	}
	cmp := benchkit.Compare(old, snap, cfg.threshold)
	fmt.Fprintf(w, "\ncomparing against %s (rev %s, %s):\n", cfg.compare, old.Rev, old.Timestamp)
	cmp.Render(w, cfg.threshold)
	if !cmp.Pass {
		return errRegressed
	}
	return nil
}

// record runs the scenario, prints its snapshot and writes it to -out. A
// -persist run's WAL is closed and its directory removed on every path.
func record(cfg *config, w io.Writer) (snap *benchkit.Snapshot, err error) {
	sc, err := benchkit.ScenarioByName(cfg.scenario)
	if err != nil {
		return nil, err
	}
	if cfg.churnFrac >= 0 {
		if sc, err = sc.WithChurnFraction(cfg.churnFrac); err != nil {
			return nil, err
		}
	}
	var driver benchkit.Driver
	var cd *benchkit.ClusterDriver
	switch {
	case cfg.cluster != "":
		topo, err := service.LoadTopology(cfg.cluster)
		if err != nil {
			return nil, err
		}
		if cd, err = benchkit.NewClusterDriver(topo, cfg.workers); err != nil {
			return nil, err
		}
		cd.Proto = cfg.proto
		driver = cd
	case cfg.target != "":
		hd := benchkit.NewHTTPDriver(cfg.target, cfg.workers)
		hd.Proto = cfg.proto
		driver = hd
	default:
		var opts service.Opts
		if cfg.persist {
			var closeWAL func() error
			if opts.Journal, closeWAL, err = openWAL(cfg.syncAlways); err != nil {
				return nil, err
			}
			defer func() { err = errors.Join(err, closeWAL()) }()
		}
		driver = benchkit.NewInProcDriver(service.New(opts))
	}
	// Cluster runs verify the replication contract up front: an owner's
	// acked write (its journal sequence) must become visible on every
	// replica, byte-identically, before the measured run trusts
	// replica-served reads.
	if cd != nil {
		id := sc.Communities[0].ID
		if _, err = cd.Setup(sc, cfg.seed); err == nil {
			err = cd.VerifyReadYourWrites(id, 15*time.Second)
		}
		if err != nil {
			cd.Close()
			return nil, err
		}
		fmt.Fprintf(w, "read-your-writes verified on %q across %d nodes\n", id, cd.Target().Nodes)
	}
	rev := cfg.rev
	if rev == "" {
		rev = gitRev()
	}
	opt := benchkit.Options{
		Duration: cfg.duration,
		Workers:  cfg.workers,
		QPS:      cfg.qps,
		Seed:     cfg.seed,
		Batch:    cfg.batch,
		Rev:      rev,
		Note:     cfg.note,
	}
	// Placement rotation runs beside the measured load: a ticker moves
	// one community per interval through a live handoff, and the
	// snapshot records how many moves ran and the p99 write pause they
	// cost — the number the epoch plane is supposed to keep small.
	var stopRotate func()
	if cfg.rotateEvery > 0 {
		stopRotate = startRotation(cd, cfg.rotateEvery)
	}
	snap, err = benchkit.Run(sc, driver, opt)
	if stopRotate != nil {
		stopRotate()
	}
	if err != nil {
		return nil, err
	}
	snap.Persist = cfg.persist
	snap.WALSyncAlways = cfg.syncAlways
	if cd != nil {
		if pauses := cd.HandoffPauses(); len(pauses) > 0 {
			snap.Handoffs = len(pauses)
			snap.HandoffPauseP99Micro = benchkit.PauseP99(pauses)
		}
	}
	benchkit.RenderSnapshot(w, snap)
	if cfg.out != "-" {
		path := cfg.out
		if path == "" {
			path = "BENCH_" + sanitize(snap.Rev) + ".json"
		}
		if err := snap.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return snap, nil
}

// openWAL opens a durability store in a fresh temporary directory and
// returns its journal, for the registry to attach before any community is
// created. closeWAL closes the store and removes the directory.
func openWAL(syncAlways bool) (journal service.Journal, closeWAL func() error, err error) {
	dir, err := os.MkdirTemp("", "holidayload-wal-*")
	if err != nil {
		return nil, nil, fmt.Errorf("WAL directory: %w", err)
	}
	var opts persist.Options
	if syncAlways {
		opts.Sync = persist.SyncAlways
	}
	store, err := persist.Open(dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return store.Journal(), func() error { return errors.Join(store.Close(), os.RemoveAll(dir)) }, nil
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
