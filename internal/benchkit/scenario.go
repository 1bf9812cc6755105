// Package benchkit is the load-generation and performance-tracking
// subsystem: it synthesizes multi-community workloads (configurable mixes of
// window, next-happy, and churn marry/divorce operations over G(n,p), ring,
// and clique communities at several scales), drives them either in-process
// against a service.Owner or over HTTP against a live holidayd, and
// records latency quantiles, throughput, cache hit ratio, and allocation
// counts into versioned BENCH_<rev>.json snapshots that successive revisions
// compare against (see Compare and cmd/holidayload).
//
// Scenario op streams are deterministic under a fixed seed: each worker of
// a run draws from its own OpGen seeded by a fixed function of the run seed
// and worker index (see Run), so two runs of the same scenario and seed
// request identical work and differ only in timing.
package benchkit

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// OpKind enumerates the request types a scenario mixes.
type OpKind int

const (
	// OpWindow is a closed-form schedule window query (the read hot path).
	OpWindow OpKind = iota
	// OpNext is a family's next-happy-holiday query.
	OpNext
	// OpMarry inserts an in-law edge, possibly forcing a §6 recoloring and a
	// cache invalidation.
	OpMarry
	// OpDivorce removes an in-law edge.
	OpDivorce
	numOpKinds
)

// String names the op kind as it appears in snapshots.
func (k OpKind) String() string {
	switch k {
	case OpWindow:
		return "window"
	case OpNext:
		return "next"
	case OpMarry:
		return "marry"
	case OpDivorce:
		return "divorce"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// OpMix weights the four op kinds. Weights are relative (they need not sum
// to anything particular); a zero weight disables the kind.
type OpMix struct {
	Window  int `json:"window"`
	Next    int `json:"next"`
	Marry   int `json:"marry"`
	Divorce int `json:"divorce"`
}

// weights returns the mix as an indexable array.
func (m OpMix) weights() [numOpKinds]int {
	return [numOpKinds]int{m.Window, m.Next, m.Marry, m.Divorce}
}

// total sums the weights.
func (m OpMix) total() int { return m.Window + m.Next + m.Marry + m.Divorce }

// CommunitySpec names one community of a scenario and the graph it starts
// from (a graph.ParseSpec string, e.g. "gnp:n=256,p=0.03"). Kind selects the
// scheduling problem ("" or "classic" for the paper's vertex scheduling,
// "poly" for Polyamorous edge scheduling); Code picks the scheduler within
// the kind and DefaultDemand the poly community's default per-edge demand.
//
// Poly scenarios must start from graphs with at least as many edges as
// families: next-happy queries index edge slots, the slot space starts at
// the initial edge count and never shrinks, so m ≥ n keeps every generated
// OpNext in range.
type CommunitySpec struct {
	ID            string `json:"id"`
	Spec          string `json:"spec"`
	Kind          string `json:"kind,omitempty"`
	Code          string `json:"code,omitempty"`
	DefaultDemand int64  `json:"default_demand,omitempty"`
}

// Scenario is a named synthetic workload: a set of communities at chosen
// scales and an op mix drawn over them.
type Scenario struct {
	Name        string
	Desc        string
	Communities []CommunitySpec
	Mix         OpMix
	// WindowSpan is the maximum holidays one window query covers.
	WindowSpan int
	// Horizon bounds the holiday range queries are drawn from.
	Horizon int64
	// Duration is the default run length (overridable per run).
	Duration time.Duration
	// ZipfS, when positive, skews community selection: community i (list
	// order) is drawn with weight 1/(i+1)^ZipfS instead of uniformly. The
	// mega family lists its giant communities first, so traffic
	// concentrates on them the way real serving traffic concentrates on
	// large tenants. Zero keeps the historical uniform draw.
	ZipfS float64
	// ChurnFrac records the fraction of ops that are churn (marry+divorce
	// over the mix total) when the mix was derived via WithChurnFraction;
	// zero for scenarios whose mix is hand-set. Snapshots carry it and
	// Compare refuses to compare across differing fractions.
	ChurnFrac float64
}

// WithChurnFraction derives a copy of the scenario whose op mix dedicates
// fraction f of ops to churn, preserving the original window:next and
// marry:divorce ratios (defaulting to 60:40 marry:divorce when the original
// mix has no churn). The derived mix is expressed in parts per thousand, so
// fractions as fine as 0.001 survive the integer weights.
func (sc *Scenario) WithChurnFraction(f float64) (*Scenario, error) {
	if f < 0 || f > 1 {
		return nil, fmt.Errorf("benchkit: churn fraction %v outside [0,1]", f)
	}
	churnW := int(f*1000 + 0.5)
	readW := 1000 - churnW
	d := *sc
	d.ChurnFrac = f
	d.Mix = OpMix{}
	if readW > 0 {
		if rt := sc.Mix.Window + sc.Mix.Next; rt > 0 {
			d.Mix.Window = readW * sc.Mix.Window / rt
			d.Mix.Next = readW - d.Mix.Window
		} else {
			d.Mix.Window = readW
		}
	}
	if churnW > 0 {
		if ct := sc.Mix.Marry + sc.Mix.Divorce; ct > 0 {
			d.Mix.Marry = churnW * sc.Mix.Marry / ct
		} else {
			d.Mix.Marry = churnW * 60 / 100
		}
		d.Mix.Divorce = churnW - d.Mix.Marry
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Scenarios returns the built-in named workloads, in presentation order.
// "ci" is deliberately small: it is the workload the bench-gate CI job runs
// on every PR.
func Scenarios() []*Scenario {
	return []*Scenario{
		{
			Name: "ci",
			Desc: "small mixed read/churn workload sized for the CI regression gate",
			Communities: []CommunitySpec{
				{ID: "gnp-s", Spec: "gnp:n=128,p=0.05"},
				{ID: "ring-s", Spec: "cycle:n=64"},
				{ID: "clique-s", Spec: "clique:n=16"},
			},
			Mix:        OpMix{Window: 70, Next: 20, Marry: 6, Divorce: 4},
			WindowSpan: 52,
			Horizon:    1 << 20,
			Duration:   2 * time.Second,
		},
		{
			Name: "read",
			Desc: "read-only window/next traffic over mid-size communities (pure cache-hit path)",
			Communities: []CommunitySpec{
				{ID: "gnp-m", Spec: "gnp:n=1024,p=0.01"},
				{ID: "ring-m", Spec: "cycle:n=512"},
				{ID: "clique-m", Spec: "clique:n=32"},
			},
			Mix:        OpMix{Window: 75, Next: 25},
			WindowSpan: 52,
			Horizon:    1 << 30,
			Duration:   10 * time.Second,
		},
		{
			Name: "churn",
			Desc: "marriage/divorce heavy traffic stressing §6 recoloring and cache invalidation",
			Communities: []CommunitySpec{
				{ID: "gnp-m", Spec: "gnp:n=512,p=0.02"},
				{ID: "ring-m", Spec: "cycle:n=256"},
				{ID: "clique-s", Spec: "clique:n=24"},
			},
			Mix:        OpMix{Window: 35, Next: 15, Marry: 30, Divorce: 20},
			WindowSpan: 26,
			Horizon:    1 << 20,
			Duration:   10 * time.Second,
		},
		{
			Name: "mixed",
			Desc: "mixed read/churn traffic across small-to-large communities",
			Communities: []CommunitySpec{
				{ID: "gnp-s", Spec: "gnp:n=256,p=0.03"},
				{ID: "gnp-l", Spec: "gnp:n=4096,p=0.002"},
				{ID: "ring-l", Spec: "cycle:n=2048"},
				{ID: "clique-m", Spec: "clique:n=48"},
			},
			Mix:        OpMix{Window: 60, Next: 25, Marry: 9, Divorce: 6},
			WindowSpan: 52,
			Horizon:    1 << 30,
			Duration:   15 * time.Second,
		},
		{
			Name: "large",
			Desc: "window scans over one large sparse community (allocation pressure path)",
			Communities: []CommunitySpec{
				{ID: "gnp-xl", Spec: "gnp:n=16384,p=0.0005"},
			},
			Mix:        OpMix{Window: 90, Next: 10},
			WindowSpan: 365,
			Horizon:    1 << 40,
			Duration:   15 * time.Second,
		},
		{
			Name: "poly",
			Desc: "polyamorous edge-scheduling communities (kind=poly) under mixed read/churn traffic",
			// Default demands are sized ≥ n: sustained marry churn drives a
			// community toward the complete graph, whose edge-chromatic
			// number (= layers needed) is n-1, so demand ≥ n keeps the
			// instance feasible — and max_gap_ratio ≤ 1 — for the whole run.
			Communities: []CommunitySpec{
				{ID: "poly-gnp-m", Spec: "gnp:n=512,p=0.02", Kind: "poly", DefaultDemand: 1024},
				{ID: "poly-ring-m", Spec: "cycle:n=256", Kind: "poly", Code: "bucketed", DefaultDemand: 512},
				{ID: "poly-clique-s", Spec: "clique:n=24", Kind: "poly", DefaultDemand: 512},
			},
			Mix:        OpMix{Window: 55, Next: 25, Marry: 12, Divorce: 8},
			WindowSpan: 52,
			Horizon:    1 << 30,
			Duration:   10 * time.Second,
		},
		{
			Name: "poly-ci",
			Desc: "the poly workload at CI sizes (regression gate for the edge-scheduling path)",
			// Demands ≥ n for the same churn-saturation feasibility reason
			// as the full-size poly scenario above.
			Communities: []CommunitySpec{
				{ID: "poly-gnp-s", Spec: "gnp:n=128,p=0.05", Kind: "poly", DefaultDemand: 256},
				{ID: "poly-ring-s", Spec: "cycle:n=64", Kind: "poly", Code: "bucketed", DefaultDemand: 128},
				{ID: "poly-clique-s", Spec: "clique:n=16", Kind: "poly", DefaultDemand: 256},
			},
			Mix:        OpMix{Window: 55, Next: 25, Marry: 12, Divorce: 8},
			WindowSpan: 52,
			Horizon:    1 << 20,
			Duration:   2 * time.Second,
		},
		megaScenario("mega",
			"million-node power-law communities under sustained zipf-skewed write traffic",
			[]int{500_000, 250_000, 100_000}, 40, 512, 20*time.Second),
		megaScenario("mega-ci",
			"the mega shape at CI-smoke sizes (same zipf skew and churn fraction, seconds not minutes)",
			[]int{4096, 2048}, 8, 64, 2*time.Second),
	}
}

// megaChurnFrac is the mega family's default fraction of ops that are churn.
const megaChurnFrac = 0.2

// megaScenario builds one member of the mega family: a few giant power-law
// (preferential-attachment) communities listed first — where the zipf draw
// concentrates traffic — plus a long tail of small ones, under a mix derived
// from the family's churn fraction. The builder exists because a hand-written
// community list at these counts would drown the scenario table; the panics
// are unreachable for the fixed parameters above.
func megaScenario(name, desc string, big []int, smallCount, smallSize int, dur time.Duration) *Scenario {
	sc := &Scenario{
		Name: name,
		Desc: desc,
		// Reads are mostly cheap next-happy point queries with a thin
		// window slice on top: a span-52 window over a 500k-node community
		// materializes tens of MB and hundreds of ms per op, which would
		// drown the write-path signal this family exists to measure.
		Mix:        OpMix{Window: 1, Next: 4}, // churn share set by WithChurnFraction
		WindowSpan: 12,
		Horizon:    1 << 30,
		Duration:   dur,
		ZipfS:      1.1,
	}
	for i, n := range big {
		sc.Communities = append(sc.Communities, CommunitySpec{
			ID:   fmt.Sprintf("mega-big-%d", i),
			Spec: fmt.Sprintf("powerlaw:n=%d,m=3", n),
		})
	}
	for i := 0; i < smallCount; i++ {
		sc.Communities = append(sc.Communities, CommunitySpec{
			ID:   fmt.Sprintf("mega-small-%d", i),
			Spec: fmt.Sprintf("powerlaw:n=%d,m=2", smallSize),
		})
	}
	sc, err := sc.WithChurnFraction(megaChurnFrac)
	if err != nil {
		panic(err.Error())
	}
	return sc
}

// ScenarioByName resolves a named workload.
func ScenarioByName(name string) (*Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("benchkit: unknown scenario %q (known: %s)", name, scenarioNames())
}

// scenarioNames joins the known scenario names for error messages.
func scenarioNames() string {
	s := ""
	for i, sc := range Scenarios() {
		if i > 0 {
			s += ", "
		}
		s += sc.Name
	}
	return s
}

// Validate checks a scenario is runnable: at least one community, a positive
// mix, and sane bounds.
func (sc *Scenario) Validate() error {
	if len(sc.Communities) == 0 {
		return fmt.Errorf("benchkit: scenario %q has no communities", sc.Name)
	}
	if sc.Mix.total() <= 0 {
		return fmt.Errorf("benchkit: scenario %q has an empty op mix", sc.Name)
	}
	if sc.Mix.Window < 0 || sc.Mix.Next < 0 || sc.Mix.Marry < 0 || sc.Mix.Divorce < 0 {
		return fmt.Errorf("benchkit: scenario %q has a negative op weight", sc.Name)
	}
	if sc.WindowSpan < 1 {
		return fmt.Errorf("benchkit: scenario %q has window span %d < 1", sc.Name, sc.WindowSpan)
	}
	if sc.Horizon < 1 {
		return fmt.Errorf("benchkit: scenario %q has horizon %d < 1", sc.Name, sc.Horizon)
	}
	if sc.ZipfS < 0 {
		return fmt.Errorf("benchkit: scenario %q has negative zipf exponent %v", sc.Name, sc.ZipfS)
	}
	if sc.ChurnFrac < 0 || sc.ChurnFrac > 1 {
		return fmt.Errorf("benchkit: scenario %q has churn fraction %v outside [0,1]", sc.Name, sc.ChurnFrac)
	}
	return nil
}

// ValidateSizes checks the created communities can serve the mix: every
// community has at least one family, and at least two when churn ops are
// enabled (a couple needs two distinct families).
func (sc *Scenario) ValidateSizes(sizes []int) error {
	churn := sc.Mix.Marry > 0 || sc.Mix.Divorce > 0
	for i, n := range sizes {
		if n < 1 {
			return fmt.Errorf("benchkit: scenario %q community %d has %d families", sc.Name, i, n)
		}
		if churn && n < 2 {
			return fmt.Errorf("benchkit: scenario %q mixes marry/divorce ops but community %q has only %d family",
				sc.Name, sc.Communities[i].ID, n)
		}
	}
	return nil
}

// Op is one generated request. Community indexes the scenario's community
// list; U/V are family ids (U the queried family for OpNext, the couple for
// churn ops); From/To bound OpWindow and OpNext queries.
type Op struct {
	Kind      OpKind
	Community int
	U, V      int
	From, To  int64
}

// OpGen deterministically generates a scenario's op stream. sizes gives the
// current family count of each community (as created by the driver); two
// generators with equal (scenario, sizes, seed) yield identical streams.
type OpGen struct {
	sc      *Scenario
	sizes   []int
	r       *rand.Rand
	weights [numOpKinds]int
	total   int
	// zipf holds the cumulative community-selection weights of a skewed
	// scenario (nil for the uniform draw): community i is chosen when the
	// uniform draw lands in (zipf[i-1], zipf[i]].
	zipf []float64
}

// NewOpGen builds a generator for the scenario over communities of the given
// sizes. It panics if sizes does not match the scenario's community list or
// a community is too small for the mix — the runner pre-checks both via
// ValidateSizes, so the panics only fire on direct misuse.
func NewOpGen(sc *Scenario, sizes []int, seed uint64) *OpGen {
	if len(sizes) != len(sc.Communities) {
		panic(fmt.Sprintf("benchkit: %d sizes for %d communities", len(sizes), len(sc.Communities)))
	}
	if err := sc.ValidateSizes(sizes); err != nil {
		panic(err.Error())
	}
	g := &OpGen{
		sc:      sc,
		sizes:   append([]int(nil), sizes...),
		r:       rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		weights: sc.Mix.weights(),
		total:   sc.Mix.total(),
	}
	if sc.ZipfS > 0 {
		g.zipf = make([]float64, len(sizes))
		sum := 0.0
		for i := range g.zipf {
			sum += math.Pow(float64(i+1), -sc.ZipfS)
			g.zipf[i] = sum
		}
	}
	return g
}

// community draws the target community: zipf-skewed toward the front of the
// list when the scenario sets ZipfS, uniform otherwise.
func (g *OpGen) community() int {
	if g.zipf == nil {
		return g.r.IntN(len(g.sizes))
	}
	x := g.r.Float64() * g.zipf[len(g.zipf)-1]
	ci := sort.SearchFloat64s(g.zipf, x)
	if ci == len(g.zipf) { // x == the total, possible at the float boundary
		ci--
	}
	return ci
}

// Next returns the following op of the stream.
func (g *OpGen) Next() Op {
	ci := g.community()
	n := g.sizes[ci]
	op := Op{Community: ci, Kind: g.kind()}
	switch op.Kind {
	case OpWindow:
		span := int64(1 + g.r.IntN(g.sc.WindowSpan))
		op.From = 1 + g.r.Int64N(g.sc.Horizon)
		op.To = op.From + span - 1
	case OpNext:
		op.U = g.r.IntN(n)
		op.From = 1 + g.r.Int64N(g.sc.Horizon)
	case OpMarry, OpDivorce:
		// Distinct couple; ValidateSizes guarantees n ≥ 2 when churn ops
		// are enabled, so the draw below cannot degenerate.
		op.U = g.r.IntN(n)
		op.V = g.r.IntN(n - 1)
		if op.V >= op.U {
			op.V++
		}
	}
	return op
}

// kind draws an op kind by mix weight.
func (g *OpGen) kind() OpKind {
	x := g.r.IntN(g.total)
	for k, w := range g.weights {
		if x < w {
			return OpKind(k)
		}
		x -= w
	}
	return OpWindow // unreachable: weights sum to total
}
