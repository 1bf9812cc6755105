package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/service"
)

// instance is one set-up of a workload: a fresh owner whose communities
// benchkit's driver created — its in-process driver, or for http-binary its
// binary HTTP driver against service.NewHandler on loopback — plus the WAL
// store of a durable workload. Untraced ops run through the driver's Do.
type instance struct {
	sc    *benchkit.Scenario
	owner *service.Owner
	drv   benchkit.Driver
	srv   *server // http-binary only
	comms []*service.Community
	sizes []int // families per community
	pool  *couplePool
	// layer names the schedule layer of each community: "core" (classic)
	// or "poly".
	layer []string
	// last holds the schedule each community was last seen serving, so a
	// traced Schedule call can tell whether it froze a new one.
	last []atomic.Value

	store *persist.Store
	dir   string
}

// datasetSeed fixes each workload's data set: its community graphs (the
// graphs benchkit's drivers build at this seed) and its couple pool. Every
// run and every --seed starts from the same data, so memory and schedule
// quality compare like with like, while --seed draws the traffic (op
// streams, arrival times and the verified windows).
const datasetSeed = 1

// newInstance opens the owner, the durable workload's WAL and the
// http-binary server, and the driver that will create the communities.
func newInstance(sc *benchkit.Scenario, w workload) (*instance, error) {
	in := &instance{sc: sc, last: make([]atomic.Value, len(sc.Communities))}
	var opts service.Opts
	if w.durable {
		dir, err := os.MkdirTemp("", "holidaybench-wal-*")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		store, err := persist.Open(dir, persist.Options{Sync: persist.SyncAlways})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		in.store, in.dir = store, dir
		opts.Journal = store.Journal()
	}
	in.owner = service.New(opts)
	if !w.http {
		in.drv = benchkit.NewInProcDriver(in.owner)
		return in, nil
	}
	srv, err := startServer(in.owner)
	if err != nil {
		in.close()
		return nil, err
	}
	in.srv = srv
	d := benchkit.NewHTTPDriver(srv.base, w.procs)
	d.Proto = benchkit.ProtoBinary
	in.drv = d
	return in, nil
}

// create has the driver create the communities and freezes each one's
// schedule, returning the time of each step.
func (in *instance) create() (setup, warm time.Duration, err error) {
	t0 := time.Now()
	sizes, err := in.drv.Setup(in.sc, datasetSeed)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	scheds := make([]core.Schedule, len(in.sc.Communities))
	for i, cs := range in.sc.Communities {
		c, ok := in.owner.Get(cs.ID)
		if !ok {
			return 0, 0, fmt.Errorf("community %q was not created", cs.ID)
		}
		if scheds[i], err = c.Schedule(); err != nil {
			return 0, 0, err
		}
		in.comms = append(in.comms, c)
	}
	t2 := time.Now()
	for i, cs := range in.sc.Communities {
		layer := "core"
		if cs.Kind == service.KindPoly {
			layer = "poly"
		}
		in.layer = append(in.layer, layer)
		in.observe(i, scheds[i])
	}
	in.sizes = sizes
	return t1.Sub(t0), t2.Sub(t1), in.sc.ValidateSizes(sizes)
}

// observe records s as community ci's current schedule and reports whether
// it is new — i.e. whether this Schedule call (or a concurrent one) froze it.
func (in *instance) observe(ci int, s core.Schedule) bool {
	prev := in.last[ci].Load()
	if prev == any(s) {
		return false
	}
	return in.last[ci].CompareAndSwap(prev, s)
}

// observeAll brings every community's schedule up to date and records it
// as last seen, so the next traced Schedule call that freezes is told apart.
func (in *instance) observeAll() error {
	for ci, c := range in.comms {
		s, err := c.Schedule()
		if err != nil {
			return err
		}
		in.observe(ci, s)
	}
	return nil
}

// close releases the communities, the server, the WAL store and its
// directory.
func (in *instance) close() {
	if in.drv != nil {
		if err := in.drv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "holidaybench: closing driver:", err)
		}
		in.drv = nil
	}
	if in.srv != nil {
		if err := in.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "holidaybench: stopping server:", err)
		}
		in.srv = nil
	}
	if in.store != nil {
		if err := in.store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "holidaybench: closing WAL:", err)
		}
		os.RemoveAll(in.dir)
		in.store = nil
	}
}

// walBytes is the size of the durable workload's data directory.
func (in *instance) walBytes() int64 {
	if in.dir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(in.dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// setupStats are the medians over the set-up repetitions.
type setupStats struct {
	total, generate, create, warm float64 // seconds
	bytesPerNode                  float64
	reps                          int
}

// Set-up repeats at least minSetupReps times and until minSetupTime of
// set-up work has been measured, at most maxSetupReps times.
const (
	minSetupReps = 3
	maxSetupReps = 100
	minSetupTime = time.Second
)

// setUpRepeated sets the workload up several times and returns the last
// instance, which the load runs against, with the median timings. Each
// set-up is the driver's Setup (graph generation and community creation)
// and one warm freeze per community. The heap-settling collections around
// it are not timed; the median retained heap of a set-up divided by its
// families is bytes_per_node. With split, graph generation is also timed on
// its own, outside the set-up, so that create can be told from generate.
func setUpRepeated(sc *benchkit.Scenario, w workload, split bool) (*instance, setupStats, error) {
	var totals, gens, creates, warms, perNode []float64
	var spent time.Duration
	var in *instance
	for rep := 0; ; rep++ {
		if in != nil {
			in.close()
		}
		var gen time.Duration
		if split {
			var err error
			if gen, err = generateTime(sc); err != nil {
				return nil, setupStats{}, err
			}
		}
		var err error
		if in, err = newInstance(sc, w); err != nil {
			return nil, setupStats{}, err
		}
		heap0 := settledHeap()
		setup, warm, err := in.create()
		if err != nil {
			in.close()
			return nil, setupStats{}, err
		}
		if heap1 := settledHeap(); heap1 > heap0 {
			perNode = append(perNode, float64(heap1-heap0)/float64(sum(in.sizes)))
		}
		spent += setup + warm
		totals = append(totals, (setup + warm).Seconds())
		gens = append(gens, gen.Seconds())
		creates = append(creates, (setup - gen).Seconds())
		warms = append(warms, warm.Seconds())
		if rep+1 >= maxSetupReps || (rep+1 >= minSetupReps && spent >= minSetupTime) {
			break
		}
	}
	return in, setupStats{
		total: median(totals), generate: median(gens), create: median(creates), warm: median(warms),
		bytesPerNode: median(perNode), reps: len(totals),
	}, nil
}

// generateTime is how long generating the scenario's graphs takes, the part
// of the driver's Setup that graph.ParseSpec does.
func generateTime(sc *benchkit.Scenario) (time.Duration, error) {
	t0 := time.Now()
	for i, cs := range sc.Communities {
		if _, err := graph.ParseSpec(cs.Spec, datasetSeed+uint64(i)); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// settledHeap is the live heap after two forced collections. One is not
// enough: a sync.Pool keeps its items through the first collection, and
// whether encoding/json's pooled 32 KB encode buffer from a journaled
// create was still pooled made churn-durable's bytes_per_node read either
// 107 or 148 B.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// median returns the median of xs (the mean of the middle two for even
// lengths); 0 for none. xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// recordingJournal wraps a journal, timing every Log call and, for a call
// made on behalf of a traced op, recording a persist.log span for it.
type recordingJournal struct {
	inner service.Journal
	tr    *tracer

	mu      sync.Mutex
	hist    Hist
	records int64
}

// Log implements service.Journal.
func (j *recordingJournal) Log(rec service.Record) (uint64, error) {
	start := j.tr.now()
	seq, err := j.inner.Log(rec)
	end := j.tr.now()
	j.mu.Lock()
	j.hist.Record(time.Duration(end - start))
	j.records++
	j.mu.Unlock()
	j.tr.addLive(liveKey{community: rec.ID, u: rec.U, v: rec.V}, "persist.log", start, end)
	return seq, err
}
