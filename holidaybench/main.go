// Command holidaybench is the repository's benchmark for the holidayd
// serving stack. It runs one named workload against the in-process service
// layer (or, for http-binary, against service.NewHandler on a loopback
// listener inside the same process), measures it for a fixed time, checks
// that every served schedule is correct, and prints one "name value unit"
// line per metric followed by a JSON summary line.
//
// Usage:
//
//	bash holidaybench/run.sh --workload read-inproc --seed 1 --seconds 25 --trace 0
//	bash holidaybench/run.sh --workload all --seed 7 --seconds 25
//	bash holidaybench/run.sh --workload churn-durable --seed 1 --seconds 25 --trace 1
//
// run.sh builds this command from the checkout into .bench_build and runs
// it from the checkout root; everything the build and the run write (Go
// build cache, the churn-durable WAL, trace spans) stays under .bench_build.
// The command exits 1 when an output check fails and 2 on a usage error.
//
// Workloads (names and reasons are also in BENCHMARK.json):
//
//   - read-inproc: benchkit's "read" communities, window:next 75:25, no
//     journal. The pure cache-hit read path: service locking and frozen
//     core Window/NextHappy do all the work, so it is the control for every
//     write-path change.
//   - churn-durable: benchkit's "churn" communities at 50% churn, journaled
//     to a WAL that fsyncs every record (persist.SyncAlways) in a temporary
//     directory. Journal append+fsync, §6 repair and the refreeze after each
//     invalidation dominate.
//   - poly-mixed: benchkit's "poly" communities (kind=poly), 20% churn. Poly
//     window and relayering dominate while the classic core idles.
//   - http-binary: benchkit's "mixed" communities served over HTTP with
//     holidayd's defaults (no journal, no coalescer); reads as single
//     binary frames on /v1/bin, churn on the JSON routes. The only workload
//     where wire encoding, net/http and handler dispatch block the result.
//
// Flush policy: only churn-durable journals, with an fsync per record; the
// other workloads run without a journal, as holidayd does by default.
//
// Sizing: every load generator runs in this process. The in-process
// workloads run at GOMAXPROCS 2 with 2 closed-loop load workers. http-binary
// runs client and server at GOMAXPROCS 1 with 1 connection, because on a
// 2-vCPU host two Ps would time the host's cross-CPU wake-ups (see
// workloads); its traced open-loop phases run at GOMAXPROCS 2 with 2
// workers, so the pacer has a P of its own.
//
// Inputs: each workload's community graphs and churn couple pool are fixed
// (datasetSeed), so memory and schedule quality (period_per_degree, taken
// on the state the load starts from) are functions of the code alone.
// --seed draws the traffic: the workers' op streams, the open-loop arrival
// schedule and the verified windows. The op mix, community picks and
// windows are those of the benchkit scenario; only churn couples are folded
// onto a pool sized from each community's graph, so that churn keeps its
// marriage count steady (see couplePool).
//
// Set-up and untraced ops go through benchkit's drivers: InProcDriver, or
// for http-binary HTTPDriver with the binary protocol. Set-up (the driver's
// Setup, then one warm freeze per community) is repeated several times and
// setup_s and bytes_per_node are medians; the last set-up is the one the
// load runs against. The load then runs untimed for warmUp before the
// measured phase. Throughput and latency quantiles are medians over 100 ms
// windows of the measured phase.
//
// With --trace 1 the per-layer metrics are printed instead of the
// end-to-end ones. The measured time is split into an untraced part and a
// traced part that samples one op in 16 and times each public call the op
// makes into the service, core, poly, persist, wire and HTTP layers,
// writing the spans to .bench_build/spans-<workload>.json; reads are split
// into Community.Schedule and the frozen schedule's Window or NextHappy,
// and every churn op is followed by one Schedule call so the refreeze is
// timed. http-binary also runs three open-loop phases with Poisson
// arrivals at 30/60/90% of a fixed capacity, each op timed from its
// scheduled send time so that queueing behind a stall is counted.
//
// After the measured phase, outside the timed window, every community is
// checked on 256 seeded windows: each classic happy set is independent in
// the exported graph, each poly happy set is a matching of live edges,
// NextHappy agrees with Window, and on http-binary the decoded binary
// windows equal the in-process AppendWindow rows. verify_failures counts
// failed checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\"")
		seed    = flag.Uint64("seed", 1, "seed for op streams, arrival times and verified windows")
		seconds = flag.Int("seconds", 10, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	)
	flag.Parse()
	if *seconds < 1 {
		usage("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		usage("--trace must be 0 or 1, got %d", *trace)
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		usage("unknown --workload %q", *name)
	}
	out := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "holidaybench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		prefix := ""
		if len(ws) > 1 {
			prefix = w.name + "/"
		}
		if err := report(os.Stdout, prefix, defs, res, out.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "holidaybench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		out.Attempted += res.attempted
		out.Failed += res.failed
		out.Correct = out.Correct && res.verifyFailures == 0
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "holidaybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// summary is the last output line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one "name value unit" line per metric of defs, then the
// result's extra lines, and adds the metrics to into. A metric of defs the
// run did not measure is an error.
func report(w io.Writer, prefix string, defs []metricDef, res *result, into map[string]metricValue) error {
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%s%s %v %s\n", prefix, d.name, v, d.unit)
		into[prefix+d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, l := range res.info {
		fmt.Fprintf(w, "%s%s\n", prefix, l)
	}
	return nil
}

func workloadByName(name string) (workload, bool) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return workload{}, false
	}
	return workloads[i], true
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "holidaybench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
