package main

import (
	"time"

	"repro/internal/benchkit"
	"repro/internal/service"
)

// opStream is one load worker's op stream: benchkit's generator for the
// workload's scenario, with every churn op's couple folded onto its
// community's couple pool.
//
// benchkit draws couples uniformly from all pairs of families. At a 3:2
// marry:divorce ratio that drives a community toward 60% density, so the
// graph a run measures depends on how many ops the code under test managed.
// Measured over 15 s closed-loop runs on a 2-vCPU x86-64 VM, marriages grew
// 11× on poly-mixed (whose throughput fell 3.7×), 16× on churn-durable and
// 1.8× on http-binary. With churn folded onto the pool below, they stayed
// within 3% of the pool's stationary count (the scenario's, less 40% of
// each clique's) from the first second on, with no trend in throughput.
type opStream struct {
	gen  *benchkit.OpGen
	pool *couplePool
}

// Next returns the stream's next op.
func (s *opStream) Next() benchkit.Op {
	op := s.gen.Next()
	if op.Kind == benchkit.OpMarry || op.Kind == benchkit.OpDivorce {
		op.U, op.V = s.pool.fold(op.Community, op.U, op.V)
	}
	return op
}

// couplePool holds, for each community, the couples its churn touches.
//
// A community's pool is its initial marriages followed by extra couples,
// ⌈M/f⌉ couples in all for M initial marriages and a marry share f of
// churn. Each churn op on a pool couple leaves it married with probability
// f, whatever its state before. So the community holds M marriages at the
// start and, on average, at every later point: a couple churn has touched
// is married with probability f, one it has not is married iff it is
// initial. A community denser than f (a clique) cannot hold that many
// couples; its pool is every pair, and churn thins it to density f.
type couplePool struct {
	sizes []int // families per community
	comms []pool
	marry float64 // f: the marry share of churn ops
}

type pool struct {
	edges [][2]int32 // initial marriages: pool couples 0..len(edges)-1
	size  int        // couples in the pool, at least 1
	all   bool       // the pool is every pair of families
}

// newCouplePool builds the pools of the scenario's communities from their
// exported initial state. It returns nil for a scenario without churn.
func newCouplePool(sc *benchkit.Scenario, comms []*service.Community) *couplePool {
	churn := sc.Mix.Marry + sc.Mix.Divorce
	if churn == 0 {
		return nil
	}
	p := &couplePool{marry: float64(sc.Mix.Marry) / float64(churn)}
	for _, c := range comms {
		st := c.Export()
		var edges [][2]int32
		if st.Poly != nil {
			for _, e := range st.Poly.Edges {
				edges = append(edges, [2]int32{int32(e.U), int32(e.V)})
			}
		} else {
			for _, e := range st.Edges {
				edges = append(edges, [2]int32{int32(e[0]), int32(e[1])})
			}
		}
		n := st.Families
		pairs := n * (n - 1) / 2
		q := pool{edges: edges, size: max(int(float64(len(edges))/p.marry+0.5), 1)}
		if q.size >= pairs {
			q = pool{size: max(pairs, 1), all: true}
		}
		p.sizes = append(p.sizes, n)
		p.comms = append(p.comms, q)
	}
	return p
}

// fold maps the drawn couple (u, v) of community ci onto a pool couple:
// index (u·n+v) mod the pool size.
func (p *couplePool) fold(ci, u, v int) (int, int) {
	n := uint64(p.sizes[ci])
	return p.couple(ci, int((uint64(u)*n+uint64(v))%uint64(p.comms[ci].size)))
}

// couple returns pool couple k of community ci: an initial marriage, an
// extra couple fixed by datasetSeed, or, for an every-pair pool, the k-th
// pair in lexicographic order.
func (p *couplePool) couple(ci, k int) (int, int) {
	q := &p.comms[ci]
	n := p.sizes[ci]
	switch {
	case q.all:
		a := 0
		for k >= n-1-a {
			k -= n - 1 - a
			a++
		}
		return a, a + 1 + k
	case k < len(q.edges):
		return int(q.edges[k][0]), int(q.edges[k][1])
	}
	h := splitmix(datasetSeed ^ splitmix(uint64(ci)<<32|uint64(k)))
	a := h % uint64(n)
	b := (h >> 32) % uint64(n-1)
	if b >= a {
		b++
	}
	return int(a), int(b)
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// workerGens returns n closed-loop workers' op streams, seeded as
// benchkit.Run seeds its workers.
func workerGens(sc *benchkit.Scenario, sizes []int, pool *couplePool, seed uint64, n int) []*opStream {
	gens := make([]*opStream, n)
	for i := range gens {
		gens[i] = &opStream{gen: benchkit.NewOpGen(sc, sizes, seed+0x100000001b3*uint64(i+1)), pool: pool}
	}
	return gens
}

// openArrivals is open-loop phase k's schedule: Poisson arrivals at
// httpPhases[k] of httpCapacity over dur, with its own op stream and gaps
// drawn from the seed.
func openArrivals(sc *benchkit.Scenario, sizes []int, pool *couplePool, seed uint64, k int, dur time.Duration) []arrival {
	s := seed + uint64(k+1)*0x9e3779b97f4a7c15
	ops := &opStream{gen: benchkit.NewOpGen(sc, sizes, s), pool: pool}
	return poissonArrivals(ops, s, httpPhases[k]*httpCapacity, dur)
}
