package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/benchkit"
)

// result is one workload run: every metric by name, plus extra lines for
// the human reader.
type result struct {
	values         map[string]float64
	info           []string
	attempted      int64
	failed         int64
	verifyFailures int
}

func (r *result) note(name string, v any, unit string) {
	r.info = append(r.info, fmt.Sprintf("%s %v %s", name, v, unit))
}

// runner holds one workload's set-up and op streams.
type runner struct {
	w    workload
	in   *instance
	seed uint64
	gens []*opStream
}

// untraced executes an op through benchkit's driver.
func (r *runner) untraced(_ int, _ int64, op benchkit.Op) error { return r.in.drv.Do(op) }

// runWorkload sets the workload up at its GOMAXPROCS, drives it for warmUp,
// measures it for dur — untraced, or with --trace split into untraced and
// traced parts — and checks its outputs.
func runWorkload(w workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	sc, err := benchkit.ScenarioByName(w.scenario)
	if err != nil {
		return nil, err
	}
	in, st, err := setUpRepeated(sc, w, traced)
	if err != nil {
		return nil, err
	}
	defer in.close()
	in.pool = newCouplePool(sc, in.comms)
	res := &result{values: map[string]float64{}}
	if !traced {
		// Taken on the state the load starts from, so it depends on the
		// code alone and not on how far the load got.
		if res.values["period_per_degree"], err = periodPerDegree(in); err != nil {
			return nil, err
		}
	}
	r := &runner{w: w, in: in, seed: seed, gens: workerGens(sc, in.sizes, in.pool, seed, w.procs)}
	if warm := closedLoop(r.gens, warmUp, r.untraced); warm.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.firstErr)
	}

	var measured []*phase
	if traced {
		if measured, err = r.traced(dur, st, res); err != nil {
			return nil, err
		}
	} else {
		p := closedLoop(r.gens, dur, r.untraced)
		measured = []*phase{p}
		res.values["qps"] = p.qps()
		res.values["p50_us"] = micros(p.quantile(0.50))
		res.values["p99_us"] = micros(p.quantile(0.99))
		res.values["cpu_us_per_op"] = micros(p.cpu) / float64(max(p.attempted, 1))
		res.values["bytes_per_node"] = st.bytesPerNode
		res.values["setup_s"] = st.total
	}
	for _, p := range measured {
		res.attempted += p.attempted
		res.failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "holidaybench: %s: first failed op: %v\n", w.name, p.firstErr)
		}
	}

	var v verifier
	maxGap, err := verifyInstance(in, seed, &v)
	if err != nil {
		return nil, err
	}
	for _, m := range v.msgs {
		fmt.Fprintf(os.Stderr, "holidaybench: %s: verify: %s\n", w.name, m)
	}
	res.verifyFailures = v.failures
	if traced {
		res.values["poly.max_gap_ratio"] = maxGap
	}
	res.note("ops", res.attempted, "count")
	res.note("error_ratio", ratio(res.failed, res.attempted), "ratio")
	res.note("verify_failures", v.failures, "count")
	res.note("setup_reps", st.reps, "count")
	return res, nil
}

// openPhases runs the open-loop phases of httpPhases for dur in total,
// through benchkit's driver, at openProcs.
func (r *runner) openPhases(dur time.Duration) []*phase {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(openProcs))
	per := dur / time.Duration(len(httpPhases))
	var out []*phase
	for k := range httpPhases {
		arr := openArrivals(r.in.sc, r.in.sizes, r.in.pool, r.seed, k, per)
		out = append(out, openLoop(openProcs, arr, per, r.in.drv.Do))
	}
	return out
}

// counters are summed community counters at one instant.
type counters struct {
	hits, misses   int64
	recolorings    int64 // classic §6 recolorings
	relayerings    int64 // poly relayering rebuilds
	walBytes       int64
	journalRecords int64
	respBytes      int64
}

func (r *runner) counters(j *recordingJournal, ws []tracedWorker) counters {
	var c counters
	for ci, cm := range r.in.comms {
		s := cm.Stats()
		c.hits += s.CacheHits
		c.misses += s.CacheMisses
		if r.in.layer[ci] == "poly" {
			c.relayerings += s.Recolorings
		} else {
			c.recolorings += s.Recolorings
		}
	}
	c.walBytes = r.in.walBytes()
	if j != nil {
		j.mu.Lock()
		c.journalRecords = j.records
		j.mu.Unlock()
	}
	for _, w := range ws {
		if hw, ok := w.(*httpWorker); ok {
			c.respBytes += hw.respBytes
		}
	}
	return c
}

// traced measures an untraced closed-loop part, then a traced one, and
// fills the per-layer metrics; http-binary also runs its open-loop phases
// before the two. It returns every measured phase.
func (r *runner) traced(dur time.Duration, st setupStats, res *result) ([]*phase, error) {
	part := dur / 2
	var open []*phase
	if r.w.http {
		part = dur / 4
		open = r.openPhases(dur / 2)
	}
	plain := closedLoop(r.gens, part, r.untraced)

	tr := newTracer()
	var ws []tracedWorker
	for range r.w.procs {
		if srv := r.in.srv; srv != nil {
			client := newClient(1)
			defer client.CloseIdleConnections()
			ws = append(ws, &httpWorker{in: r.in, base: srv.base, client: client})
		} else {
			ws = append(ws, &inprocWorker{in: r.in})
		}
	}
	var j *recordingJournal
	if r.in.store != nil {
		j = &recordingJournal{inner: r.in.store.Journal(), tr: tr}
		r.in.owner.SetJournal(j)
		defer r.in.owner.SetJournal(r.in.store.Journal())
	}
	if srv := r.in.srv; srv != nil {
		srv.tr.Store(tr)
		defer srv.tr.Store(nil)
	}
	if err := r.in.observeAll(); err != nil {
		return nil, err
	}
	c0 := r.counters(j, ws)
	tp := closedLoop(r.gens, part, func(w int, n int64, op benchkit.Op) error {
		return tracedOp(ws[w], op, tr, n)
	})
	c1 := r.counters(j, ws)
	if err := tr.write(filepath.Join(".bench_build", "spans-"+r.w.name+".json")); err != nil {
		return nil, err
	}

	v := res.values
	v["go.allocs_per_op"] = ratio(int64(plain.mallocs), plain.attempted)
	v["go.bytes_per_op"] = ratio(int64(plain.allocB), plain.attempted)
	v["go.gc_pause_p99_us"] = histQuantile(plain.gcPauses, 0.99) * 1e6
	v["gen.late_p99_us"], v["http.open_p50_us"], v["http.open_p99_us"], v["http.slo_qps"] = 0, 0, 0, 0
	if open != nil {
		per := dur / 2 / time.Duration(len(open))
		var late Hist
		for k, p := range open {
			late.Merge(&p.late)
			// A phase whose last reply came more than 10% after its last
			// due time fell behind: its backlog grew.
			backlog := p.elapsed > per+per/10
			if p.failed == 0 && !backlog && p.lat.Quantile(0.99) <= sloP99Micros*time.Microsecond {
				v["http.slo_qps"] = httpPhases[k] * httpCapacity
			}
			name := fmt.Sprintf("open_%.0f_ops_s.", httpPhases[k]*httpCapacity)
			res.note(name+"p50_us", micros(p.lat.Quantile(0.50)), "us")
			res.note(name+"p99_us", micros(p.lat.Quantile(0.99)), "us")
			res.note(name+"late_p99_us", micros(p.late.Quantile(0.99)), "us")
			res.note(name+"backlog_grew", backlog, "bool")
		}
		v["gen.late_p99_us"] = micros(late.Quantile(0.99))
		mid := open[httpOpenPhase]
		v["http.open_p50_us"] = micros(mid.lat.Quantile(0.50))
		v["http.open_p99_us"] = micros(mid.lat.Quantile(0.99))
	}

	sum := summarize(tr.all())
	v["service.schedule_us"] = sum.meanMicros("service.schedule")
	v["service.churn_self_us"] = sum.meanSelfMicros("service.churn")
	v["service.handler_us"] = sum.meanMicros("service.handler")
	v["core.window_us"] = sum.meanMicros("core.window")
	v["core.next_us"] = sum.meanMicros("core.next")
	v["core.freeze_us"] = sum.meanMicros("core.freeze")
	v["poly.window_us"] = sum.meanMicros("poly.window")
	v["poly.next_us"] = sum.meanMicros("poly.next")
	v["poly.freeze_us"] = sum.meanMicros("poly.freeze")
	v["wire.encode_us"] = sum.meanMicros("wire.encode")
	v["wire.decode_us"] = sum.meanMicros("wire.decode")
	v["http.transport_us"] = sum.meanSelfMicros("http.roundtrip")
	v["trace.unattributed_frac"] = sum.unattributedFrac()
	v["trace.qps"] = tp.qps()
	v["trace.overhead_frac"] = float64(tp.lat.Mean())/float64(plain.lat.Mean()) - 1

	v["service.cache_hit_ratio"] = ratio(c1.hits-c0.hits, (c1.hits-c0.hits)+(c1.misses-c0.misses))
	v["service.freezes_per_churn_op"] = ratio(c1.misses-c0.misses, tp.churn)
	v["core.recolorings_per_churn_op"] = ratio(c1.recolorings-c0.recolorings, tp.churn)
	v["poly.relayerings_per_churn_op"] = ratio(c1.relayerings-c0.relayerings, tp.churn)
	v["wire.resp_bytes_per_op"] = ratio(c1.respBytes-c0.respBytes, tp.attempted)
	v["persist.log_us"], v["persist.log_p99_us"], v["persist.bytes_per_record"] = 0, 0, 0
	if j != nil {
		v["persist.log_us"] = micros(j.hist.Mean())
		v["persist.log_p99_us"] = micros(j.hist.Quantile(0.99))
		v["persist.bytes_per_record"] = ratio(c1.walBytes-c0.walBytes, c1.journalRecords-c0.journalRecords)
	}
	v["graph.generate_s"] = st.generate
	v["service.create_s"] = st.create
	v["core.warm_freeze_s"] = st.warm

	res.note("untraced_qps", plain.qps(), "ops/s")
	res.note("traced_ops", sum.roots, "count")
	layers := make([]string, 0, len(sum.layerSelf))
	for l := range sum.layerSelf {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		name := "self_us_per_traced_op." + l
		if l == "op" {
			name = "self_us_per_traced_op.unattributed"
		}
		res.note(name, float64(sum.layerSelf[l])/float64(max(sum.roots, 1))/1e3, "us")
	}
	return append(open, plain, tp), nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
