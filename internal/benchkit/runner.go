package benchkit

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Options configure one load run.
type Options struct {
	// Duration of the measured phase; <= 0 uses the scenario default.
	Duration time.Duration
	// Workers issuing ops concurrently; < 1 uses GOMAXPROCS.
	Workers int
	// QPS is the aggregate target rate across workers; 0 runs unthrottled
	// (measures the maximum the target sustains).
	QPS float64
	// Seed drives community generation and every worker's op stream.
	Seed uint64
	// Batch groups this many ops into each DoBatch call; 1 calls Do per
	// op. Per-op latency is recorded as the batch's
	// round trip divided by the batch size — the amortized cost one op paid
	// — while the raw whole-batch round trip is tracked separately under
	// the "batch" per-op key. (Recording the raw round trip per op, as the
	// runner once did, made every op kind's quantiles collapse onto the
	// identical batch RTT and masked per-kind differences entirely.)
	Batch int
	// Rev and Note annotate the snapshot (git revision, free-form context).
	Rev, Note string
}

// workerState is one worker's private measurement, merged after the run so
// the hot loop never shares memory.
type workerState struct {
	overall  Hist
	perKind  [numOpKinds]Hist
	batch    Hist // whole-batch round trips of a batched run
	errors   [numOpKinds]int64
	firstErr error
}

// Run drives the scenario against the driver and returns the measured
// snapshot. Community creation and one cache-warming window query per
// community happen before the clock starts, so the measured phase sees the
// steady serving state. An error is returned for setup failures or a run in
// which every op failed; sporadic op errors are counted in the snapshot.
func Run(sc *Scenario, d Driver, opt Options) (*Snapshot, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opt.Duration <= 0 {
		opt.Duration = sc.Duration
	}
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Batch < 1 {
		opt.Batch = 1
	}
	target := d.Target()
	// Bracket Setup with GC-settled heap readings: the delta divided by the
	// family count is the resident bytes-per-node metric of schema 2. Only
	// the in-process driver's communities live in this process, so only its
	// runs record it.
	inProc := target.Driver == "inproc"
	var heap0 uint64
	if inProc {
		heap0 = settledHeap()
	}
	sizes, err := d.Setup(sc, opt.Seed)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if err := sc.ValidateSizes(sizes); err != nil {
		return nil, err
	}
	var bytesPerNode float64
	if totalNodes := sum(sizes); inProc && totalNodes > 0 {
		// A shrinking heap (Setup freed more than it kept, possible when a
		// prior run's garbage collects late) records 0, never a negative or
		// non-finite value — encoding/json refuses NaN/Inf.
		if heap1 := settledHeap(); heap1 > heap0 {
			bytesPerNode = float64(heap1-heap0) / float64(totalNodes)
		}
	}

	// Warm the frozen-schedule caches: the first query per community pays
	// the freeze; steady-state serving is what the snapshot tracks.
	for ci := range sc.Communities {
		if err := d.Do(Op{Kind: OpWindow, Community: ci, From: 1, To: 1}); err != nil {
			return nil, fmt.Errorf("benchkit: warmup query on %q failed: %w", sc.Communities[ci].ID, err)
		}
	}
	st0, err := d.Stats()
	if err != nil {
		return nil, err
	}
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	states := make([]workerState, opt.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(opt.Duration)
	// Pacing: each worker owns a 1/Workers share of the target rate and
	// walks a fixed tick grid, skipping sleeps when it falls behind.
	var interval time.Duration
	if opt.QPS > 0 {
		interval = time.Duration(float64(opt.Workers) / opt.QPS * float64(time.Second))
	}
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &states[w]
			// Distinct, widely separated streams per worker; the offset
			// keeps worker 0 of different worker counts distinct too.
			gen := NewOpGen(sc, sizes, opt.Seed+0x100000001b3*uint64(w+1))
			// A batched worker paces per batch: one request carries Batch
			// ops, so the tick stride scales with the batch size.
			stride := interval * time.Duration(opt.Batch)
			ops := make([]Op, opt.Batch)
			errs := make([]error, opt.Batch)
			next := start.Add(interval * time.Duration(w) / time.Duration(opt.Workers))
			for {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(stride)
				}
				if !time.Now().Before(deadline) {
					return
				}
				for i := range ops {
					ops[i] = gen.Next()
					errs[i] = nil
				}
				t0 := time.Now()
				var batchErr error
				if opt.Batch > 1 {
					batchErr = d.DoBatch(ops, errs)
				} else {
					errs[0] = d.Do(ops[0])
				}
				lat := time.Since(t0)
				// Amortized attribution: each op carries its share of the
				// batch round trip; the raw RTT goes to the batch hist.
				opLat := lat
				if len(ops) > 1 {
					opLat = lat / time.Duration(len(ops))
					st.batch.Record(lat)
				}
				for i := range ops {
					st.overall.Record(opLat)
					st.perKind[ops[i].Kind].Record(opLat)
					err := errs[i]
					if batchErr != nil {
						err = batchErr
					}
					if err != nil {
						st.errors[ops[i].Kind]++
						if st.firstErr == nil {
							st.firstErr = err
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	st1, err := d.Stats()
	if err != nil {
		return nil, err
	}

	var merged, batchHist Hist
	var perKind [numOpKinds]Hist
	var errs int64
	var firstErr error
	for w := range states {
		merged.Merge(&states[w].overall)
		batchHist.Merge(&states[w].batch)
		for k := range perKind {
			perKind[k].Merge(&states[w].perKind[k])
			errs += states[w].errors[k]
		}
		if firstErr == nil {
			firstErr = states[w].firstErr
		}
	}
	ops := merged.Count()
	if ops == 0 {
		return nil, fmt.Errorf("benchkit: run completed no ops (duration %s too short?)", opt.Duration)
	}
	if errs == ops {
		return nil, fmt.Errorf("benchkit: all %d ops failed; first error: %w", ops, firstErr)
	}

	s := &Snapshot{
		Schema:      SchemaVersion,
		Rev:         opt.Rev,
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		Scenario:    sc.Name,
		Driver:      target.Driver,
		Workers:     opt.Workers,
		QPSTarget:   opt.QPS,
		DurationSec: elapsed.Seconds(),
		Seed:        opt.Seed,
		GoVersion:   runtime.Version(),
		Maxprocs:    runtime.GOMAXPROCS(0),
		Proto:       target.Proto,
		Batch:       batchLabel(opt.Batch),
		Nodes:       target.Nodes,
		ChurnFrac:   sc.ChurnFrac,
		Note:        opt.Note,
		Totals: Metrics{
			Ops:    ops,
			Errors: errs,
			// Only successfully served ops count toward the gated
			// throughput: a change that fails an op class fast must read
			// as a qps regression, not a speedup.
			QPS:          float64(ops-errs) / elapsed.Seconds(),
			P50Micro:     micros(merged.Quantile(0.50)),
			P95Micro:     micros(merged.Quantile(0.95)),
			P99Micro:     micros(merged.Quantile(0.99)),
			AllocsPerOp:  float64(mem1.Mallocs-mem0.Mallocs) / float64(ops),
			BytesPerOp:   float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(ops),
			BytesPerNode: bytesPerNode,
		},
		PerOp: map[string]OpStats{},
	}
	if churnOps := perKind[OpMarry].Count() + perKind[OpDivorce].Count(); churnOps > 0 && st1.Recolorings >= st0.Recolorings {
		s.Totals.RecoloringsPerChurnOp = float64(st1.Recolorings-st0.Recolorings) / float64(churnOps)
	}
	if st1.Edges > 0 {
		s.Totals.Edges = st1.Edges
		s.Totals.MaxGapRatio = st1.MaxGapRatio
	}
	if batchHist.Count() > 0 {
		// The raw whole-batch round trips of a batched run, under the
		// reserved "batch" key (no OpKind ever renders this name): the
		// user-visible completion time one batched request paid, kept
		// alongside the amortized per-kind quantiles.
		s.PerOp["batch"] = OpStats{
			Count:    batchHist.Count(),
			P50Micro: micros(batchHist.Quantile(0.50)),
			P95Micro: micros(batchHist.Quantile(0.95)),
			P99Micro: micros(batchHist.Quantile(0.99)),
		}
	}
	if hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses; hits+misses > 0 {
		s.Totals.CacheHitRatio = float64(hits) / float64(hits+misses)
	}
	for k := range perKind {
		h := &perKind[k]
		if h.Count() == 0 {
			continue
		}
		s.PerOp[OpKind(k).String()] = OpStats{
			Count:    h.Count(),
			Errors:   sumErrors(states, OpKind(k)),
			P50Micro: micros(h.Quantile(0.50)),
			P95Micro: micros(h.Quantile(0.95)),
			P99Micro: micros(h.Quantile(0.99)),
		}
	}
	return s, nil
}

// batchLabel normalizes the snapshot's batch field: unbatched runs record
// nothing, keeping them comparable to pre-batching baselines.
func batchLabel(batch int) int {
	if batch <= 1 {
		return 0
	}
	return batch
}

// settledHeap reads the live-heap size after forcing two collections, so
// two readings bracket real retention rather than transient garbage. One
// is not enough: a sync.Pool keeps its items through the first collection,
// so bytes_per_node would count whatever Setup left pooled.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// sum totals a size list.
func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// micros converts a duration to fractional microseconds for the snapshot.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// sumErrors totals one op kind's errors across workers.
func sumErrors(states []workerState, k OpKind) int64 {
	var n int64
	for w := range states {
		n += states[w].errors[k]
	}
	return n
}
