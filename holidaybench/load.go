package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/benchkit"
)

// phase is the measurement of one load phase.
type phase struct {
	lat       Hist    // op latency: from send (closed loop) or scheduled send (open loop)
	late      Hist    // open loop: when the pacer released each op minus its due time
	perWin    []int64 // successful ops completed in each whole statWindow of the phase
	winLat    []Hist  // latency of the ops completed in each whole statWindow
	attempted int64
	failed    int64
	churn     int64 // attempted marry and divorce ops
	firstErr  error
	elapsed   time.Duration
	cpu       time.Duration // process user+system CPU
	mallocs   uint64
	allocB    uint64
	gcPauses  *metrics.Float64Histogram // stop-the-world GC pauses during the phase
}

// workerPhase is one goroutine's private share of a phase.
type workerPhase struct {
	lat       Hist
	perWin    []int64
	winLat    []Hist
	attempted int64
	failed    int64
	churn     int64
	firstErr  error
}

// record books one finished op.
func (p *workerPhase) record(op benchkit.Op, start, done time.Time, lat time.Duration, err error) {
	p.lat.Record(lat)
	p.attempted++
	if op.Kind == benchkit.OpMarry || op.Kind == benchkit.OpDivorce {
		p.churn++
	}
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	if i := int(done.Sub(start) / statWindow); i < len(p.perWin) {
		p.perWin[i]++
		p.winLat[i].Record(lat)
	}
}

// statWindow is the interval throughput and latency quantiles are taken
// over before the median across intervals is reported.
const statWindow = 100 * time.Millisecond

// newWorkerPhases returns n workers' shares of a phase lasting dur.
func newWorkerPhases(n int, dur time.Duration) []workerPhase {
	parts := make([]workerPhase, n)
	for i := range parts {
		parts[i].perWin = make([]int64, int(dur/statWindow))
		parts[i].winLat = make([]Hist, int(dur/statWindow))
	}
	return parts
}

// tracedOp executes op on w, recording spans for one op in traceEvery.
func tracedOp(w tracedWorker, op benchkit.Op, tr *tracer, n int64) error {
	if n%traceEvery != 0 {
		return w.doTraced(op, nil)
	}
	ot := tr.begin()
	err := w.doTraced(op, ot)
	ot.finish()
	return err
}

// closedLoop runs one goroutine per op stream, each sending its next op as
// soon as the previous one returns, for dur. do executes op number n of
// worker w's stream.
func closedLoop(gens []*opStream, dur time.Duration, do func(w int, n int64, op benchkit.Op) error) *phase {
	parts := newWorkerPhases(len(gens), dur)
	m := startMeasure()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &parts[i]
			for n := int64(0); ; n++ {
				op := gens[i].Next()
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := do(i, n, op)
				done := time.Now()
				p.record(op, start, done, done.Sub(t0), err)
			}
		}(i)
	}
	wg.Wait()
	return m.finish(parts, time.Since(start))
}

// arrival is one open-loop op and when it is due, relative to phase start.
type arrival struct {
	at time.Duration
	op benchkit.Op
}

// poissonArrivals draws a Poisson arrival schedule at rate ops/s over dur,
// ops from gen and gaps from a generator seeded by seed: the same inputs
// give the same schedule.
func poissonArrivals(gen *opStream, seed uint64, rate float64, dur time.Duration) []arrival {
	r := rand.New(rand.NewPCG(seed, 0xa0761d6478bd642f))
	var out []arrival
	for at := time.Duration(0); ; {
		at += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, op: gen.Next()})
	}
}

// openLoop sends each arrival at its due time through do on whichever of
// workers goroutines is free, without waiting for earlier replies beyond
// the workers' count. The calling goroutine paces: it sleeps until each due
// time and hands the op to the workers over a channel that holds any
// backlog, so no goroutine busy-waits. Latency runs from the due time, so a
// stall that delays later sends is charged to them; late records how far
// behind its due time the pacer released each op, the generator's own
// error.
func openLoop(workers int, arr []arrival, dur time.Duration, do func(op benchkit.Op) error) *phase {
	parts := newWorkerPhases(workers, dur)
	due := make(chan int, len(arr))
	m := startMeasure()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(p *workerPhase) {
			defer wg.Done()
			for k := range due {
				a := arr[k]
				err := do(a.op)
				done := time.Now()
				p.record(a.op, start, done, done.Sub(start.Add(a.at)), err)
			}
		}(&parts[i])
	}
	var late Hist
	for k, a := range arr {
		at := start.Add(a.at)
		if time.Until(at) > 0 {
			// A worker just handed an op waits in this P's run queue, and
			// nanosleep keeps the P; yield it to the worker first.
			runtime.Gosched()
			sleepUntil(at)
		}
		late.Record(time.Since(at))
		due <- k
	}
	close(due)
	wg.Wait()
	p := m.finish(parts, time.Since(start))
	p.late = late
	return p
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// timers (time.Sleep) wake an idle process only at 1 ms granularity on
// Linux, which would release open-loop arrivals in 1 ms bursts: on a 2-vCPU
// x86-64 VM a 150 µs time.Sleep overslept by 0.92 ms at the median and a
// 150 µs nanosleep by 59 µs. At 30% load the pacer's median lateness was
// 146 µs with time.Sleep and 57 µs with this.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR (Go's preemption signal) retries
	}
}

// measure brackets a phase with process CPU, allocation and GC readings.
type measure struct {
	cpu   time.Duration
	mem   runtime.MemStats
	pause []metrics.Sample
}

const gcPauseMetric = "/sched/pauses/total/gc:seconds"

func startMeasure() *measure {
	m := &measure{cpu: processCPU(), pause: []metrics.Sample{{Name: gcPauseMetric}}}
	runtime.ReadMemStats(&m.mem)
	metrics.Read(m.pause)
	return m
}

func (m *measure) finish(parts []workerPhase, elapsed time.Duration) *phase {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s := []metrics.Sample{{Name: gcPauseMetric}}
	metrics.Read(s)
	p := &phase{
		elapsed:  elapsed,
		cpu:      processCPU() - m.cpu,
		mallocs:  mem.Mallocs - m.mem.Mallocs,
		allocB:   mem.TotalAlloc - m.mem.TotalAlloc,
		gcPauses: histDelta(s[0].Value.Float64Histogram(), m.pause[0].Value.Float64Histogram()),
	}
	for i := range parts {
		w := &parts[i]
		p.lat.Merge(&w.lat)
		p.attempted += w.attempted
		p.failed += w.failed
		p.churn += w.churn
		if p.firstErr == nil {
			p.firstErr = w.firstErr
		}
		if p.perWin == nil {
			p.perWin = make([]int64, len(w.perWin))
			p.winLat = make([]Hist, len(w.winLat))
		}
		for s, c := range w.perWin {
			p.perWin[s] += c
			p.winLat[s].Merge(&w.winLat[s])
		}
	}
	return p
}

// histDelta returns a − b for two readings of the same runtime histogram.
func histDelta(a, b *metrics.Float64Histogram) *metrics.Float64Histogram {
	d := &metrics.Float64Histogram{Buckets: a.Buckets, Counts: make([]uint64, len(a.Counts))}
	for i := range a.Counts {
		d.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	return d
}

// histQuantile returns the upper edge of the bucket holding the q-quantile
// of a runtime histogram, in seconds; 0 when it is empty.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(q*float64(n-1)) + 1
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if math.IsInf(h.Buckets[i+1], 1) {
				return h.Buckets[i]
			}
			return h.Buckets[i+1]
		}
	}
	return 0 // unreachable: the counts sum to n
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// qps is the median over the phase's whole statWindows of the successful
// ops per second, or the mean rate for a phase shorter than a window.
func (p *phase) qps() float64 {
	if len(p.perWin) == 0 {
		return float64(p.attempted-p.failed) / p.elapsed.Seconds()
	}
	xs := make([]float64, len(p.perWin))
	for i, c := range p.perWin {
		xs[i] = float64(c)
	}
	return median(xs) / statWindow.Seconds()
}

// quantile is the median over the phase's whole statWindows of each
// window's q-quantile latency, counting only windows with at least ten
// samples beyond the quantile, so a burst of outside noise moves it less
// than a whole-phase quantile. With fewer than three such windows it is the
// whole-phase quantile.
func (p *phase) quantile(q float64) time.Duration {
	need := int64(math.Ceil(10 / (1 - q)))
	var xs []float64
	for i := range p.winLat {
		if h := &p.winLat[i]; h.Count() >= need {
			xs = append(xs, float64(h.Quantile(q)))
		}
	}
	if len(xs) < 3 {
		return p.lat.Quantile(q)
	}
	return time.Duration(median(xs))
}
