package experiments

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/poly"
	"repro/internal/stats"
)

// polyDemands assigns each edge of g a reproducible power-of-two demand from
// the given menu, returning edges in g's canonical order.
func polyDemands(g *graph.Graph, menu []int64, seed uint64) ([]graph.Edge, []int64) {
	rng := rand.New(rand.NewPCG(seed, 17))
	edges := g.Edges()
	demands := make([]int64, len(edges))
	for i := range edges {
		demands[i] = menu[rng.IntN(len(menu))]
	}
	return edges, demands
}

// buildPoly schedules g's edges with the named approximation algorithm.
func buildPoly(g *graph.Graph, code string, edges []graph.Edge, demands []int64) *poly.Dyn {
	d, err := poly.New(g.N(), code)
	if err != nil {
		panic(err)
	}
	for i, e := range edges {
		d.AddEdge(e.U, e.V, demands[i])
	}
	return d
}

// E19PolySchedulers validates the two Polyamorous Scheduling approximation
// algorithms (arXiv 2411.06292 via internal/poly): on every family, both
// the global layering scheduler and the frequency-bucketed scheduler must
// produce a matching-per-slot schedule whose per-edge maximum gap respects
// that edge's demand (max gap ratio ≤ 1) while keeping dyadic density ≤ 1.
func E19PolySchedulers(cfg Config) *stats.Table {
	tb := stats.NewTable("E19: poly approximation schedulers meet every edge demand (arXiv 2411.06292)",
		"instance", "code", "edges", "layers", "density", "demand density", "max gap ratio", "fairness", "demands met")
	tb.Note = "Edge-scheduling: each timeslot is a matching; per-edge gap ≤ demand on every family, for both schedulers."
	n := cfg.pick(128, 48)
	menu := []int64{16, 32, 64, 128, 256}
	// All of a star's edges share the hub, so they all need distinct layers:
	// feasibility demands Σ 1/demand ≤ 1, which the default menu breaks at
	// full size. The hub menu keeps the instance feasible at any n here.
	hubMenu := []int64{128, 256, 512, 1024}
	families := []struct {
		name string
		g    *graph.Graph
		menu []int64
	}{
		{"cycle", graph.Cycle(n), menu},
		{"star", graph.Star(n / 2), hubMenu},
		{"gnp sparse", graph.GNP(n, 3.0/float64(n), cfg.Seed), menu},
		{"clique", graph.Clique(cfg.pick(16, 10)), menu},
		{"random tree", graph.RandomTree(n, cfg.Seed+1), menu},
	}
	for _, f := range families {
		edges, demands := polyDemands(f.g, f.menu, cfg.Seed+uint64(len(f.name)))
		for _, code := range poly.Codes() {
			d := buildPoly(f.g, code, edges, demands)
			if err := d.Verify(); err != nil {
				panic(fmt.Sprintf("E19 %s/%s: %v", f.name, code, err))
			}
			st := d.Stats()
			ok := st.MaxGapRatio <= 1 && st.Density <= 1+1e-9
			tb.AddRow(f.name, code, st.Edges, st.Layers,
				fmt.Sprintf("%.3f", st.Density), fmt.Sprintf("%.3f", st.DemandDensity),
				fmt.Sprintf("%.2f", st.MaxGapRatio), fmt.Sprintf("%.3f", st.Fairness), boolCell(ok))
		}
	}
	return tb
}

// slotPeriod reads an edge slot's firing period off the frozen schedule:
// the distance between its first two firings (0 for never-happy slots).
func slotPeriod(ps *core.ClassSchedule, slot int) int64 {
	t1 := ps.NextHappy(slot, 1)
	if t1 == 0 {
		return 0
	}
	return ps.NextHappy(slot, t1+1) - t1
}

// unionGap returns the maximum gap of the union of two arithmetic
// progressions t ≡ o mod p — the service an edge receives under a *node*
// schedule, where either endpoint's gathering covers the pair.
func unionGap(pu, ou, pv, ov int64) int64 {
	span := pu
	if pv > span {
		span = pv
	}
	var last, worst int64
	for t := int64(0); t <= 2*span; t++ {
		if t%pu == ou%pu || t%pv == ov%pv {
			if t-last > worst {
				worst = t - last
			}
			last = t
		}
	}
	return worst
}

// E20NodeVsEdge compares node-scheduling (the paper's degree-bound
// gathering schedule: a firing family hosts its whole neighborhood) with
// edge-scheduling (poly: a firing is one pairwise meeting) on the same
// uniform per-pair demand. Two prices are measured: the worst gap any pair
// sees, and the attendance cost rate — family-slots spent per timeslot,
// (deg+1)/period summed over nodes vs 2/period summed over edges. Node
// schedules over-serve (shorter gaps, every gathering drags the whole
// neighborhood); edge schedules meet each demand exactly at a fraction of
// the attendance cost — decisively so on hub-heavy families, where every
// leaf's period-2 firing bills the hub.
func E20NodeVsEdge(cfg Config) *stats.Table {
	tb := stats.NewTable("E20: node- vs edge-scheduling on uniform pairwise demands",
		"instance", "demand", "pair gap (node)", "pair gap (edge)", "cost/slot (node)", "cost/slot (edge)", "cost winner", "edge demands met")
	tb.Note = "Attendance cost = family-slots per timeslot; node gatherings over-serve, edge meetings pay only the pair."
	families := []struct {
		name   string
		g      *graph.Graph
		demand int64
	}{
		{"star", graph.Star(cfg.pick(64, 24)), 64},
		{"clique", graph.Clique(cfg.pick(12, 8)), 32},
		{"cycle", graph.Cycle(cfg.pick(96, 32)), 8},
		{"gnp sparse", graph.GNP(cfg.pick(96, 40), 0.06, cfg.Seed), 64},
	}
	for _, f := range families {
		db := core.NewDegreeBoundSequential(f.g)
		edges := f.g.Edges()
		demands := make([]int64, len(edges))
		for i := range demands {
			demands[i] = f.demand
		}
		d := buildPoly(f.g, poly.CodeLayering, edges, demands)
		ps := d.FrozenSchedule()

		var nodeGap, edgeGap int64
		for slot, e := range edges {
			if g := unionGap(db.Period(e.U), db.Offset(e.U), db.Period(e.V), db.Offset(e.V)); g > nodeGap {
				nodeGap = g
			}
			if p := slotPeriod(ps, slot); p > edgeGap {
				edgeGap = p
			}
		}
		nodeCost, edgeCost := 0.0, 0.0
		for v := 0; v < f.g.N(); v++ {
			nodeCost += float64(f.g.Degree(v)+1) / float64(db.Period(v))
		}
		for slot := range edges {
			if p := slotPeriod(ps, slot); p > 0 {
				edgeCost += 2 / float64(p)
			}
		}
		winner := "edge"
		if nodeCost < edgeCost {
			winner = "node"
		}
		tb.AddRow(f.name, f.demand, nodeGap, edgeGap,
			fmt.Sprintf("%.2f", nodeCost), fmt.Sprintf("%.2f", edgeCost),
			winner, boolCell(edgeGap <= f.demand))
	}
	return tb
}

// E21PolyChurn stresses the incremental repair path: sustained random
// marry/divorce churn against both poly schedulers, verifying the full
// matching/disjointness invariant and demand satisfaction after the run,
// and counting how often the escape-hatch relayering fired. Demands are
// drawn sparse enough to stay feasible, so a gap ratio above 1 or an
// invariant break is a repair bug, not an overloaded instance.
func E21PolyChurn(cfg Config) *stats.Table {
	tb := stats.NewTable("E21: poly incremental repair under marry/divorce churn",
		"code", "events", "marries", "divorces", "relayerings", "edges", "density", "max gap ratio", "demands met")
	tb.Note = "Churn maps to edge insert/delete; repair stays local, with full relayering only as the escape hatch."
	n := cfg.pick(96, 40)
	events := cfg.pick(3000, 600)
	menu := []int64{32, 64, 128, 256}
	for _, code := range poly.Codes() {
		d, err := poly.New(n, code)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewPCG(cfg.Seed+21, uint64(len(code))))
		marries, divorces := 0, 0
		for k := 0; k < events; k++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u == v {
				continue
			}
			if rng.Float64() < 0.65 {
				if applied, _ := d.AddEdge(u, v, menu[rng.IntN(len(menu))]); applied {
					marries++
				}
			} else if d.RemoveEdge(u, v) {
				divorces++
			}
		}
		if err := d.Verify(); err != nil {
			panic(fmt.Sprintf("E21 %s: %v", code, err))
		}
		st := d.Stats()
		ok := st.MaxGapRatio <= 1 && st.Density <= 1+1e-9
		tb.AddRow(code, events, marries, divorces, st.Relayerings, st.Edges,
			fmt.Sprintf("%.3f", st.Density), fmt.Sprintf("%.2f", st.MaxGapRatio), boolCell(ok))
	}
	return tb
}
