package persist

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// BenchmarkSaveSnapshotWritePause measures how long a snapshot stalls the
// writes journaled beside it. Each iteration opens a SyncBatch store,
// journals `pending` marry and divorce records on a 64-family community
// (what a snapshot finds since the one before it), then runs SaveSnapshot
// while one writer alternates a marriage and a divorce on that community.
// snapshot-ms is SaveSnapshot's duration and worst-write-ms the writer's
// slowest op while it ran, both averaged over iterations; ns/op is
// SaveSnapshot alone. Run it with -benchtime 1x.
func BenchmarkSaveSnapshotWritePause(b *testing.B) {
	for _, pending := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			var snapshot, worst time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, reg, c := pendingStore(b, pending)
				stop := make(chan struct{})
				started, slowest := make(chan struct{}), make(chan time.Duration)
				go writeUntil(b, c, stop, started, slowest)
				<-started
				b.StartTimer()
				t0 := time.Now()
				err := store.SaveSnapshot(reg)
				snapshot += time.Since(t0)
				b.StopTimer()
				close(stop)
				worst += <-slowest
				if err != nil {
					b.Fatal(err)
				}
				if err := store.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(snapshot.Microseconds())/1e3/float64(b.N), "snapshot-ms")
			b.ReportMetric(float64(worst.Microseconds())/1e3/float64(b.N), "worst-write-ms")
		})
	}
}

// BenchmarkSyncAlwaysWriters measures SyncAlways writes from 1, 2, 4 and 8
// writers, each on its own community, alternating a marriage and a
// divorce of one couple, so each write journals one record and fsyncs.
// The writers' fsyncs run outside the WAL's append mutex, so they overlap
// rather than take turns. records/s is what the writers journal together;
// ns/op is the wall time per record.
func BenchmarkSyncAlwaysWriters(b *testing.B) {
	for _, writers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			store, err := Open(b.TempDir(), Options{Sync: SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			reg, err := store.Load()
			if err != nil {
				b.Fatal(err)
			}
			comms := make([]*service.Community, writers)
			for w := range comms {
				if comms[w], err = reg.Create(fmt.Sprintf("c%d", w), 2, nil, ""); err != nil {
					b.Fatal(err)
				}
			}
			var left atomic.Int64
			left.Store(int64(b.N))
			var wg sync.WaitGroup
			b.ResetTimer()
			t0 := time.Now()
			for _, c := range comms {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for married := false; left.Add(-1) >= 0; married = !married {
						var err error
						if married {
							_, _, err = c.Divorce(0, 1)
						} else {
							_, err = c.Marry(0, 1)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "records/s")
		})
	}
}

// pendingStore opens a SyncBatch store in a fresh directory and journals
// n churn records on an unmarried 64-family community, in batches of
// service.MaxBatch, each divorce undoing the marriage before it.
func pendingStore(b *testing.B, n int) (*Store, *service.Owner, *service.Community) {
	store, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	reg, err := store.Load()
	if err != nil {
		b.Fatal(err)
	}
	c, err := reg.Create("c", 64, nil, "")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewPCG(uint64(n), 64))
	edits := make([]core.Edit, 0, service.MaxBatch)
	for left := n; left > 0; left -= len(edits) {
		edits = edits[:0]
		for len(edits) < min(left, service.MaxBatch) {
			u, v := r.IntN(64), r.IntN(63)
			if v >= u {
				v++
			}
			edits = append(edits, core.Edit{Op: core.EditInsert, U: u, V: v}, core.Edit{Op: core.EditDelete, U: u, V: v})
		}
		edits = edits[:min(left, len(edits))]
		if _, err := c.ChurnBatch(edits, nil); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC() // the set-up's garbage, so no collection of it lands in the measurement
	return store, reg, c
}

// writeUntil alternates a marriage and a divorce on c, closing started
// after its first op, until stop closes; then it sends its slowest op.
func writeUntil(b *testing.B, c *service.Community, stop, started chan struct{}, slowest chan<- time.Duration) {
	var worst time.Duration
	for i := 0; ; i++ {
		select {
		case <-stop:
			slowest <- worst
			return
		default:
		}
		t0 := time.Now()
		var err error
		if i%2 == 0 {
			_, err = c.Marry(0, 32)
		} else {
			_, _, err = c.Divorce(0, 32)
		}
		worst = max(worst, time.Since(t0))
		if err != nil {
			b.Error(err)
		}
		if i == 0 {
			close(started)
		}
	}
}

// BenchmarkOpenLoad measures a restart after a crash left 1M churn records
// journaled since the last snapshot (none here): Open, which finds the last
// segment's torn tail and last sequence, then Load, which replays every
// record. open-ms and load-ms are their durations, averaged over
// iterations; ns/op is both. Run it with -benchtime 1x.
func BenchmarkOpenLoad(b *testing.B) {
	const pending = 1_000_000
	store, _, _ := pendingStore(b, pending)
	dir := store.dir
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	var open, load time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		store, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		reg, err := store.Load()
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		open, load = open+t1.Sub(t0), load+t2.Sub(t1)
		b.StopTimer()
		if c, ok := reg.Get("c"); !ok || c.Seq() != pending+1 {
			b.Fatalf("restored %v at the wrong sequence", ok)
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
	}
	b.ReportMetric(float64(open.Microseconds())/1e3/float64(b.N), "open-ms")
	b.ReportMetric(float64(load.Microseconds())/1e3/float64(b.N), "load-ms")
}
