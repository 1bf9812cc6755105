package cluster

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

// BenchmarkHandoffPause hands a power-law community of n families from one
// in-process node to another over loopback HTTP, with no write landing
// while it runs, so the tail is empty. pause-ms is the write pause Handoff
// reports; ns/op is the whole handoff, export and install included. Each
// iteration boots a fresh pair of nodes; run it with -benchtime 3x.
func BenchmarkHandoffPause(b *testing.B) {
	for _, n := range []int{50_000, 200_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, err := graph.ParseSpec(fmt.Sprintf("powerlaw:n=%d,m=3", n), 1)
			if err != nil {
				b.Fatal(err)
			}
			var pause time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, to, table, stop := bootBenchPair(b)
				if _, err := a.owner.CreateFromGraph("big", g, ""); err != nil {
					b.Fatal(err)
				}
				table.Assign["big"] = to
				b.StartTimer()
				res, err := Handoff(a.owner, a.src, a.rt, "big", table, time.Minute)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				pause += res.Pause
				stop()
				b.StartTimer()
			}
			b.ReportMetric(float64(pause.Microseconds())/1e3/float64(b.N), "pause-ms")
		})
	}
}

// bootBenchPair boots nodes a and b, each an owner journaled by a Source
// that serves the stream route on its own loopback listener, and returns
// a, b's id, a table one epoch ahead, and a function that stops both.
func bootBenchPair(b *testing.B) (*hNode, string, service.Placement, func()) {
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
		src, err := NewSource(SourceOpts{Owner: owner, Router: rt})
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
		})
	}
	table := hs[0].rt.Placement()
	table.Epoch++
	return hs[0], "b", table, func() {
		for _, stop := range stops {
			stop()
		}
	}
}
