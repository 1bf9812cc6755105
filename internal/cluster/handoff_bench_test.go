package cluster

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/service"
)

// BenchmarkHandoffPause hands a power-law community of n families from one
// in-process node to another over loopback HTTP, with no write landing on
// it while it runs, so the tail is empty. pause-ms is the write pause
// Handoff reports; ns/op is the whole handoff, export, install and the
// install's journaling included. In a separate run, n=N,writing, one
// writer alternates a marriage and a divorce on another community the
// receiver owns throughout the handoff; other-write-ms is its slowest op,
// what the receiver's decode, install and journaling of the offered state
// cost its other writers. Both are averaged over iterations. With wal=P,
// each node journals to a WAL in a temporary directory under sync policy
// P (batch or always), as holidayd does with -data-dir; without, each
// Source is the journal itself. Each iteration boots a fresh pair of
// nodes; run it with -benchtime 3x.
func BenchmarkHandoffPause(b *testing.B) {
	for _, n := range []int{50_000, 200_000} {
		g, err := graph.ParseSpec(fmt.Sprintf("powerlaw:n=%d,m=3", n), 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, wal := range []string{"", "batch", "always"} {
			for _, writing := range []bool{false, true} {
				name := fmt.Sprintf("n=%d", n)
				if writing {
					name += ",writing"
				}
				if wal != "" {
					name += ",wal=" + wal
				}
				b.Run(name, func(b *testing.B) { benchHandoff(b, g, wal, writing) })
			}
		}
	}
}

// benchHandoff is one run of BenchmarkHandoffPause.
func benchHandoff(b *testing.B, g *graph.Graph, wal string, writing bool) {
	var pause, worst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, to, table, stop := bootBenchPair(b, wal)
		if _, err := a.owner.CreateFromGraph("big", g, ""); err != nil {
			b.Fatal(err)
		}
		table.Assign["big"] = "b"
		halt, slowest := make(chan struct{}), make(chan time.Duration, 1)
		if writing {
			other, err := to.owner.Create("other", 64, nil, "")
			if err != nil {
				b.Fatal(err)
			}
			started := make(chan struct{})
			go writeUntil(b, other, halt, started, slowest)
			<-started
		} else {
			slowest <- 0
		}
		b.StartTimer()
		_, p, err := a.src.Handoff("big", table)
		b.StopTimer()
		close(halt)
		worst += <-slowest
		if err != nil {
			b.Fatal(err)
		}
		pause += p
		stop()
		b.StartTimer()
	}
	if writing {
		b.ReportMetric(float64(worst.Microseconds())/1e3/float64(b.N), "other-write-ms")
	} else {
		b.ReportMetric(float64(pause.Microseconds())/1e3/float64(b.N), "pause-ms")
	}
}

// writeUntil alternates a marriage and a divorce on c, closing started
// after its first op, until halt closes; then it sends its slowest op.
func writeUntil(b *testing.B, c *service.Community, halt, started chan struct{}, slowest chan<- time.Duration) {
	var worst time.Duration
	for i := 0; ; i++ {
		select {
		case <-halt:
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

// bootBenchPair boots nodes a and b, each an owner journaled by a Source
// that serves the stream route on its own loopback listener, over a WAL
// in a temporary directory under sync policy wal (batch or always) unless
// wal is empty, and returns a, b, a table one epoch ahead, and a function
// that stops both.
func bootBenchPair(b *testing.B, wal string) (*hNode, *hNode, service.Placement, func()) {
	var lns []net.Listener
	var nodes []service.Node
	for _, id := range []string{"a", "b"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns = append(lns, ln)
		nodes = append(nodes, service.Node{ID: id, Addr: "http://" + ln.Addr().String()})
	}
	var hs []*hNode
	var stops []func()
	for i, n := range nodes {
		owner := service.New(service.Opts{})
		rt, err := service.NewRouter(service.RouterOpts{Self: n.ID, Nodes: nodes})
		if err != nil {
			b.Fatal(err)
		}
		opts := SourceOpts{Owner: owner, Router: rt}
		var store *persist.Store
		if wal != "" {
			policy := map[string]persist.SyncPolicy{"batch": persist.SyncBatch, "always": persist.SyncAlways}[wal]
			if store, err = persist.Open(b.TempDir(), persist.Options{Sync: policy}); err != nil {
				b.Fatal(err)
			}
			opts.Journal = store.Journal()
		}
		src, err := NewSource(opts)
		if err != nil {
			b.Fatal(err)
		}
		owner.SetJournal(src)
		srv := &http.Server{Handler: src}
		go srv.Serve(lns[i])
		hs = append(hs, &hNode{owner: owner, src: src, rt: rt})
		stops = append(stops, func() {
			src.Close()
			srv.Close()
			if store != nil {
				store.Close()
			}
		})
	}
	table := hs[0].rt.Placement()
	table.Epoch++
	return hs[0], hs[1], table, func() {
		for _, stop := range stops {
			stop()
		}
	}
}
