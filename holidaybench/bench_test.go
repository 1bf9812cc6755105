package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchkit"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesSuite checks that BENCHMARK.json and the Go
// tables name the same workloads and metrics, with the same units,
// directions and bounds, and that every name and unit is well formed.
func TestBenchmarkJSONMatchesSuite(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !slices.Equal(bf.Paths, []string{"holidaybench"}) || len(bf.Command) < 2 || bf.Command[1] != "holidaybench/run.sh" {
		t.Errorf("command %v and paths %v do not name this directory", bf.Command, bf.Paths)
	}

	var jsonW, goW []string
	for _, w := range bf.Workloads {
		jsonW = append(jsonW, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		goW = append(goW, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(jsonW, goW) {
		t.Errorf("workloads differ:\nBENCHMARK.json %q\nGo table       %q", jsonW, goW)
	}
	// The open-loop rates are fixed in BENCHMARK.json by the reason text.
	var shares []string
	for _, s := range httpPhases {
		shares = append(shares, strconv.Itoa(int(math.Round(s*100))))
	}
	rates := strings.Join(shares, "/") + "% of " + strconv.Itoa(httpCapacity) + " ops/s"
	if w, _ := workloadByName("http-binary"); !strings.Contains(w.why, rates) {
		t.Errorf("http-binary's reason %q does not state its open-loop rates %q", w.why, rates)
	}

	var jsonE, goE []string
	for _, m := range bf.EndToEnd {
		jsonE = append(jsonE, m.Name+" "+m.Unit+" "+m.Better+" "+fmtBound(m.Bound))
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		goE = append(goE, m.name+" "+m.unit+" "+m.better+" "+fmtBound(m.bound))
	}
	if !reflect.DeepEqual(jsonE, goE) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %q\nGo table       %q", jsonE, goE)
	}
	if !slices.Contains(goE, "setup_s s lower "+fmtBound(0.25)) {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}

	var jsonL, goL []string
	for _, m := range bf.PerLayer {
		jsonL = append(jsonL, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range perLayer {
		goL = append(goL, m.name+" "+m.unit+" "+m.better)
	}
	if !reflect.DeepEqual(jsonL, goL) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %q\nGo table       %q", jsonL, goL)
	}

	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q is malformed", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q or its reason is malformed", w.name)
		}
		if _, err := benchkit.ScenarioByName(w.scenario); err != nil {
			t.Errorf("workload %q: %v", w.name, err)
		}
		if w.procs < 1 || w.procs > 2 {
			t.Errorf("workload %q runs %d Ps; the benchmark is sized for a 2-vCPU host", w.name, w.procs)
		}
	}
}

func fmtBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// TestRunReportsEveryMetric runs every workload briefly, untraced and
// traced, and checks every metric is printed as "name value unit", the
// outputs verify and no op fails.
func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, w := range workloads {
		name := w.name
		for _, traced := range []bool{false, true} {
			t.Setenv("TMPDIR", t.TempDir())
			t.Chdir(t.TempDir()) // spans go under .bench_build here
			dur := time.Second
			if traced {
				dur = 2 * time.Second
			}
			res, err := runWorkload(w, 3, dur, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.verifyFailures != 0 || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d verify failures, %d of %d ops failed",
					name, traced, res.verifyFailures, res.failed, res.attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var buf bytes.Buffer
			got := map[string]metricValue{}
			if err := report(&buf, "", defs, res, got); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			lines := strings.Split(buf.String(), "\n")
			for i, d := range defs {
				f := strings.Fields(lines[i])
				if len(f) != 3 || f[0] != d.name || f[2] != d.unit {
					t.Errorf("%s: line %q, want %q <value> %q", name, lines[i], d.name, d.unit)
				}
				v := got[d.name].Value
				if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
					t.Errorf("%s: %s = %v", name, d.name, v)
				}
			}
			if traced && res.values["trace.unattributed_frac"] > 0.10 {
				t.Errorf("%s: %.3f of traced time is unattributed", name, res.values["trace.unattributed_frac"])
			}
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the worker op streams and
// the open-loop arrival schedule, and that another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	in := setUpInProc(t, "mixed")
	pool := newCouplePool(in.sc, in.comms)
	draw := func(seed uint64) ([][]benchkit.Op, []arrival) {
		var ops [][]benchkit.Op
		for _, g := range workerGens(in.sc, in.sizes, pool, seed, 2) {
			var s []benchkit.Op
			for range 1000 {
				s = append(s, g.Next())
			}
			ops = append(ops, s)
		}
		return ops, openArrivals(in.sc, in.sizes, pool, seed, 1, time.Second)
	}
	ops1, arr1 := draw(7)
	ops2, arr2 := draw(7)
	if !reflect.DeepEqual(ops1, ops2) || !reflect.DeepEqual(arr1, arr2) {
		t.Fatal("the same seed gave different inputs")
	}
	if reflect.DeepEqual(ops1[0], ops1[1]) {
		t.Error("the two workers drew the same stream")
	}
	ops3, arr3 := draw(8)
	if reflect.DeepEqual(ops1, ops3) || reflect.DeepEqual(arr1, arr3) {
		t.Error("another seed gave the same inputs")
	}
	// Poisson arrivals at 60% of httpCapacity for a second: the count is
	// within a few standard deviations of the rate.
	want := httpPhases[1] * httpCapacity
	if got := float64(len(arr1)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("%v arrivals in a second, want about %v", got, want)
	}
	for i := 1; i < len(arr1); i++ {
		if arr1[i].at < arr1[i-1].at {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
// overlapping children count once, a child running past its parent is
// clipped, and spans of another trace with the same ids do not mix in.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 0, Parent: -1, Name: "op.root", Start: 0, End: 100},
		{Trace: 1, ID: 1, Parent: 0, Name: "service.schedule", Start: 10, End: 40},
		{Trace: 1, ID: 2, Parent: 0, Name: "core.window", Start: 30, End: 60},
		{Trace: 1, ID: 3, Parent: 1, Name: "core.freeze", Start: 15, End: 25},
		{Trace: 1, ID: 4, Parent: 0, Name: "persist.log", Start: 90, End: 120},
		{Trace: 2, ID: 0, Parent: -1, Name: "op.root", Start: 0, End: 10},
		{Trace: 2, ID: 1, Parent: 0, Name: "service.schedule", Start: 0, End: 10},
	}
	want := []int64{
		100 - 50 - 10, // [10,60] and the clipped [90,100]
		30 - 10,
		30,
		10,
		30,
		0,
		10,
	}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	s := summarize(spans)
	if s.roots != 2 || s.rootDur != 110 {
		t.Errorf("roots %d over %d ns, want 2 over 110", s.roots, s.rootDur)
	}
	if got, want := s.unattributedFrac(), 40.0/110; math.Abs(got-want) > 1e-12 {
		t.Errorf("unattributed fraction %v, want %v", got, want)
	}
	if s.layerSelf["service"] != 30 || s.layerSelf["core"] != 40 || s.layerSelf["persist"] != 30 {
		t.Errorf("layer self times %v", s.layerSelf)
	}
	if got := s.meanSelfMicros("service.schedule"); got != 15.0/1e3 {
		t.Errorf("mean service.schedule self time %v µs, want 0.015", got)
	}
}

// TestHistQuantilesMatchSortedSamples compares histogram quantiles with
// the same quantiles read from the sorted raw samples: exact below 128 ns,
// within 1/64 of the sample above.
func TestHistQuantilesMatchSortedSamples(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, scale := range []float64{20, 100, 1e3, 1e6, 1e9} {
		var h Hist
		raw := make([]int64, 100_000)
		for i := range raw {
			raw[i] = int64(scale * math.Exp(r.NormFloat64()))
			h.Record(time.Duration(raw[i]))
		}
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		for _, q := range []float64{0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := max(int(math.Ceil(q*float64(len(raw)))), 1)
			want := raw[rank-1]
			got := int64(h.Quantile(q))
			tol := int64(float64(want) / 64)
			if want < histExact {
				tol = 0
			}
			if d := got - want; d > tol || -d > tol {
				t.Errorf("scale %g q %v: hist %d ns, samples %d ns (tolerance %d)", scale, q, got, want, tol)
			}
		}
	}
	for b := 0; b < histBuckets-1; b++ {
		lo, hi := bucketBounds(b)
		if bucketOf(lo) != b || bucketOf(hi-1) != b || bucketOf(hi) != b+1 {
			t.Fatalf("bucket %d [%d,%d) does not round-trip", b, lo, hi)
		}
		if lo >= histExact && float64(hi-lo) > float64(lo)/64 {
			t.Fatalf("bucket %d [%d,%d) is wider than 1/64", b, lo, hi)
		}
	}
}

// TestCheckSetRejectsConflicts makes sure the output checks can fail:
// married families both happy, two happy edges sharing a family, and a
// vacant edge slot reported happy are all caught.
func TestCheckSetRejectsConflicts(t *testing.T) {
	// Classic path 0-1-2 plus isolated 3.
	classic := shape{n: 4, deg: []int{1, 2, 1, 0}, off: []int{0, 1, 3, 4, 4}, adj: []int{1, 0, 2, 1}}
	mark := make([]int64, 4)
	if why := classic.checkSet([]int{0, 2, 3}, mark, 1); why != "" {
		t.Errorf("independent set rejected: %s", why)
	}
	if why := classic.checkSet([]int{1, 2}, mark, 2); why == "" {
		t.Error("married families 1 and 2 both happy went unnoticed")
	}
	// Poly: slot 0 = (0,1), slot 1 = (1,2), slot 2 vacant, slot 3 = (2,3).
	poly := shape{poly: true, n: 4, ends: [][2]int{{0, 1}, {1, 2}, {}, {2, 3}}, live: []bool{true, true, false, true}}
	if why := poly.checkSet([]int{0, 3}, mark, 3); why != "" {
		t.Errorf("matching rejected: %s", why)
	}
	if why := poly.checkSet([]int{0, 1}, mark, 4); why == "" {
		t.Error("edges sharing family 1 both happy went unnoticed")
	}
	if why := poly.checkSet([]int{2}, mark, 5); why == "" {
		t.Error("vacant slot happy went unnoticed")
	}
}

// setUpInProc creates scenario name's communities in process, untimed.
func setUpInProc(t *testing.T, name string) *instance {
	t.Helper()
	sc, err := benchkit.ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInstance(sc, workload{scenario: name})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.close)
	if _, _, err := in.create(); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestCouplePool checks that folded couples are two distinct families of
// the community, drawn from a pool of the expected shape, and that churn on
// the pool keeps each community near its stationary marriage count: its
// initial count for a sparse community, the marry share of all pairs for a
// clique.
func TestCouplePool(t *testing.T) {
	in := setUpInProc(t, "churn")
	p := newCouplePool(in.sc, in.comms)
	if p.marry != 0.6 {
		t.Fatalf("marry share %v, want 0.6 for the churn mix", p.marry)
	}
	initial := make([]int, len(in.comms))
	r := rand.New(rand.NewPCG(1, 1))
	for ci, c := range in.comms {
		n, q := p.sizes[ci], p.comms[ci]
		initial[ci] = len(c.Export().Edges)
		switch pairs := n * (n - 1) / 2; {
		case initial[ci] == pairs:
			if !q.all || q.size != pairs {
				t.Errorf("community %d: clique pool %+v, want all %d pairs", ci, q, pairs)
			}
		case q.all || len(q.edges) != initial[ci] || q.size != int(float64(initial[ci])/0.6+0.5):
			t.Errorf("community %d: pool of %d couples with %d initial ones, want ⌈%d/0.6⌉ with all",
				ci, q.size, len(q.edges), initial[ci])
		}
		seen := map[[2]int]bool{}
		for range 20 * q.size {
			u, v := r.IntN(n), r.IntN(n-1)
			if v >= u {
				v++
			}
			a, b := p.fold(ci, u, v)
			if a == b || min(a, b) < 0 || max(a, b) >= n {
				t.Fatalf("community %d: couple (%d,%d) of %d families", ci, a, b, n)
			}
			seen[[2]int{min(a, b), max(a, b)}] = true
		}
		if len(seen) > q.size || len(seen) < q.size*9/10 {
			t.Errorf("community %d: churn touched %d couples, pool holds %d", ci, len(seen), q.size)
		}
	}
	// 40k ops of the 50%-churn mix touch each pool couple about twice.
	for _, g := range workerGens(in.sc, in.sizes, p, 1, 1) {
		for range 40_000 {
			if err := in.drv.Do(g.Next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for ci, c := range in.comms {
		q := p.comms[ci]
		want := float64(initial[ci])
		if q.all {
			want = 0.6 * float64(q.size)
		}
		got := float64(len(c.Export().Edges))
		if tol := 5 * math.Sqrt(float64(q.size)*0.24); math.Abs(got-want) > tol {
			t.Errorf("community %d: %v marriages after churn, want %v ± %.0f", ci, got, want, tol)
		}
	}
}
