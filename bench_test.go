// Benchmark harness: one benchmark per experiment (E1–E18, the reproduction
// of every claim in the paper — see DESIGN.md §5 and EXPERIMENTS.md), plus
// micro-benchmarks of the performance-critical primitives and the
// sequential-vs-parallel analysis engine comparison. Run with
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks use the Quick configuration so a full sweep
// completes in seconds; `go run ./cmd/bench` runs the full-size workloads.
package holiday_test

import (
	"testing"

	holiday "repro"
	"repro/internal/chairman"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/prefixcode"
	"repro/internal/service"
	"repro/internal/stats"
)

// benchCfg sizes the experiment workloads for benchmarking.
var benchCfg = experiments.Config{Quick: true, Seed: 1}

// benchExperiment runs one experiment per iteration and keeps the table
// alive so the work is not optimized away.
func benchExperiment(b *testing.B, run func(experiments.Config) *stats.Table) {
	b.Helper()
	var sink *stats.Table
	for i := 0; i < b.N; i++ {
		sink = run(benchCfg)
	}
	if sink == nil || len(sink.Rows) == 0 {
		b.Fatal("experiment produced no table")
	}
}

func BenchmarkE1PhasedGreedy(b *testing.B) { benchExperiment(b, experiments.E1PhasedGreedy) }
func BenchmarkE2ColorBound(b *testing.B)   { benchExperiment(b, experiments.E2ColorBound) }
func BenchmarkE3DegreeBound(b *testing.B)  { benchExperiment(b, experiments.E3DegreeBound) }
func BenchmarkE4SchedulerComparison(b *testing.B) {
	benchExperiment(b, experiments.E4SchedulerComparison)
}
func BenchmarkE5CauchySums(b *testing.B)   { benchExperiment(b, experiments.E5CauchySums) }
func BenchmarkE6Rounds(b *testing.B)       { benchExperiment(b, experiments.E6Rounds) }
func BenchmarkE7FirstGrab(b *testing.B)    { benchExperiment(b, experiments.E7FirstGrab) }
func BenchmarkE8Dynamic(b *testing.B)      { benchExperiment(b, experiments.E8Dynamic) }
func BenchmarkE9Satisfaction(b *testing.B) { benchExperiment(b, experiments.E9Satisfaction) }
func BenchmarkE10MIS(b *testing.B)         { benchExperiment(b, experiments.E10MIS) }
func BenchmarkE11Codes(b *testing.B)       { benchExperiment(b, experiments.E11Codes) }
func BenchmarkE12Separation(b *testing.B)  { benchExperiment(b, experiments.E12Separation) }
func BenchmarkE13Bipartite(b *testing.B)   { benchExperiment(b, experiments.E13Bipartite) }
func BenchmarkE14Radio(b *testing.B)       { benchExperiment(b, experiments.E14Radio) }

// --- micro-benchmarks ---

func BenchmarkOmegaEncode(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink += prefixcode.Omega{}.Encode(uint64(i%65536 + 1)).Len()
	}
	_ = sink
}

func BenchmarkOmegaDecodeHoliday(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, err := prefixcode.Omega{}.Decode(prefixcode.NewIntReader(uint64(i + 1)))
		if err != nil {
			// Rare holidays match a color beyond uint64 (a legitimate
			// range error); they carry no schedulable color.
			continue
		}
		sink += v
	}
	_ = sink
}

func BenchmarkGreedyColoring(b *testing.B) {
	g := graph.GNP(2048, 0.005, 3)
	order := coloring.IdentityOrder(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if coloring.Greedy(g, order) == nil {
			b.Fatal("nil coloring")
		}
	}
}

func BenchmarkDistributedColoring(b *testing.B) {
	g := graph.GNP(512, 0.02, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coloring.DistributedDelta1(g, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhasedGreedyStep(b *testing.B) {
	g := graph.GNP(1024, 0.01, 5)
	pg, err := core.NewPhasedGreedy(g, coloring.Greedy(g, coloring.IdentityOrder(g.N())))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg.Next()
	}
}

func BenchmarkDegreeBoundConstruction(b *testing.B) {
	g := graph.GNP(2048, 0.005, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewDegreeBoundSequential(g)
	}
}

func BenchmarkDegreeBoundStep(b *testing.B) {
	g := graph.GNP(1024, 0.01, 7)
	db := core.NewDegreeBoundSequential(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Next()
	}
}

func BenchmarkHopcroftKarp(b *testing.B) {
	g := graph.GNP(2048, 0.003, 8)
	edges := g.Edges()
	adj := make([][]int, g.N())
	for i, e := range edges {
		adj[e.U] = append(adj[e.U], i)
		adj[e.V] = append(adj[e.V], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.HopcroftKarp(g.N(), len(edges), adj)
	}
}

func BenchmarkMaxSatisfactionLinear(b *testing.B) {
	g := graph.GNP(2048, 0.003, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.MaxSatisfaction(g)
	}
}

func BenchmarkMISExact(b *testing.B) {
	g := graph.GNP(26, 0.3, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis.Exact(g)
	}
}

func BenchmarkFacadeAnalyze(b *testing.B) {
	g := graph.GNP(256, 0.03, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := holiday.New(g, holiday.DegreeBound)
		if err != nil {
			b.Fatal(err)
		}
		rep := holiday.Analyze(s, g, 256)
		if rep.IndependenceViolations != 0 {
			b.Fatal("independence violated")
		}
	}
}

func BenchmarkE15Chairman(b *testing.B)        { benchExperiment(b, experiments.E15Chairman) }
func BenchmarkE16ColoringQuality(b *testing.B) { benchExperiment(b, experiments.E16ColoringQuality) }

func BenchmarkE17ColeVishkin(b *testing.B) { benchExperiment(b, experiments.E17ColeVishkin) }

func BenchmarkLubyMIS(b *testing.B) {
	g := graph.GNP(512, 0.02, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := mis.LubyMIS(g, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColeVishkin(b *testing.B) {
	g := graph.Cycle(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coloring.ColeVishkinCycle(g, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// The closed-form periodic analyzer vs full simulation: the speedup that
// perfectly periodic schedules buy.
func BenchmarkAnalyzeSimulated(b *testing.B) {
	g := graph.GNP(512, 0.02, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := core.NewDegreeBoundSequential(g)
		core.Analyze(db, g, 4096)
	}
}

func BenchmarkAnalyzePeriodicClosedForm(b *testing.B) {
	g := graph.GNP(512, 0.02, 12)
	db := core.NewDegreeBoundSequential(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.AnalyzePeriodic(db, g, 4096)
	}
}

// --- analysis-engine benchmarks ---
//
// The E-scale workload below matches the full-size experiment instances
// (n≈2048, horizon≈8192). BenchmarkAnalyzeParallelEScale shards the horizon
// across GOMAXPROCS workers and checks independence via word-packed
// bitsets; with GOMAXPROCS ≥ 4 it runs ≥ 2× faster than
// BenchmarkAnalyzeSequentialEScale while producing an identical Report
// (asserted by TestAnalyzeParallelMatchesAnalyze and the property tests in
// internal/engine).

const (
	eScaleNodes   = 2048
	eScaleHorizon = 8192
)

func eScaleGraph() *graph.Graph { return graph.GNP(eScaleNodes, 8.0/eScaleNodes, 12) }

func BenchmarkAnalyzeSequentialEScale(b *testing.B) {
	g := eScaleGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := holiday.Analyze(core.NewDegreeBoundSequential(g), g, eScaleHorizon)
		if rep.IndependenceViolations != 0 {
			b.Fatal("independence violated")
		}
	}
}

func BenchmarkAnalyzeParallelEScale(b *testing.B) {
	g := eScaleGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := holiday.AnalyzeParallel(core.NewDegreeBoundSequential(g), g, eScaleHorizon)
		if rep.IndependenceViolations != 0 {
			b.Fatal("independence violated")
		}
	}
}

func BenchmarkAnalyzeParallelColorBoundEScale(b *testing.B) {
	g := eScaleGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := holiday.New(g, holiday.ColorBound)
		if err != nil {
			b.Fatal(err)
		}
		if rep := holiday.AnalyzeParallel(s, g, eScaleHorizon); rep.IndependenceViolations != 0 {
			b.Fatal("independence violated")
		}
	}
}

func BenchmarkRunBatchEScale(b *testing.B) {
	jobs := make([]holiday.BatchJob, 8)
	for i := range jobs {
		jobs[i] = holiday.BatchJob{
			Graph:   graph.GNP(eScaleNodes/4, 32.0/eScaleNodes, uint64(20+i)),
			Algo:    holiday.PhasedGreedy,
			Horizon: eScaleHorizon / 4,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := holiday.RunBatch(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- schedule / serving-path benchmarks ---
//
// BenchmarkWindow streams a full E-scale horizon through the random-access
// Schedule (the path the engine shards); BenchmarkWindowRandomAccess pays
// for 52-holiday pages at arbitrary offsets, which closed-form schedules
// answer without simulating the prefix. BenchmarkServiceWindowThroughput
// is the serving-path baseline: concurrent window queries against one
// community's cached frozen schedule, reported in queries/sec.

func BenchmarkWindow(b *testing.B) {
	g := eScaleGraph()
	sched, err := holiday.NewSchedule(g, holiday.DegreeBound)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var events int64
		sched.Window(1, eScaleHorizon, func(t int64, happy []int) { events += int64(len(happy)) })
		if events == 0 {
			b.Fatal("empty window")
		}
	}
}

func BenchmarkWindowRandomAccess(b *testing.B) {
	g := eScaleGraph()
	sched, err := holiday.NewSchedule(g, holiday.DegreeBound)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := int64(i%1024)*1_000_000 + 1 // far-future pages cost the same as page one
		var events int64
		sched.Window(from, from+51, func(t int64, happy []int) { events += int64(len(happy)) })
		if events == 0 {
			b.Fatal("empty window")
		}
	}
}

func BenchmarkServiceWindowThroughput(b *testing.B) {
	g := graph.GNP(1024, 8.0/1024, 13)
	reg := service.New(service.Opts{})
	c, err := reg.CreateFromGraph("bench", g, "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Window(1, 52); err != nil { // freeze the schedule once
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			from := int64(i%1000)*52 + 1
			rows, err := c.Window(from, from+51)
			if err != nil || len(rows) != 52 {
				b.Errorf("window failed: %v (%d rows)", err, len(rows))
				return
			}
			i++
		}
	})
	b.StopTimer()
	if misses := c.Stats().CacheMisses; misses != 1 {
		b.Fatalf("cached serving froze %d schedules, want 1", misses)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkChairmanStep(b *testing.B) {
	s := chairman.Uniform(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

func BenchmarkE18DynamicDegreeBound(b *testing.B) {
	benchExperiment(b, experiments.E18DynamicDegreeBound)
}
