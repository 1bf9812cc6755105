// Command holidayd serves the family holiday gathering scheduler over
// HTTP/JSON: a concurrent registry of communities, each scheduled by the §6
// dynamic color-bound scheduler, answering window and next-happy queries
// from cached perfectly periodic schedules.
//
// Usage:
//
//	holidayd -addr :8080
//	holidayd -addr :8080 -demo gnp:n=100,p=0.05
//	holidayd -addr :8080 -data-dir /var/lib/holidayd
//
// With -demo, a community named "demo" is created at startup from the graph
// spec (see internal/graph.ParseSpec), so the API is queryable immediately:
//
//	curl 'localhost:8080/v1/communities/demo/window?from=1&to=52'
//	curl 'localhost:8080/v1/communities/demo/families/3/next?from=10'
//
// With -data-dir, the registry is durable: every mutation is written to an
// append-only WAL before it is acknowledged, the registry is snapshotted
// periodically (-snapshot-every) and on graceful shutdown (SIGINT/SIGTERM),
// and on boot the previous state is restored from snapshot + WAL replay —
// restored communities answer byte-identically. See DESIGN.md §8.
//
// With -node-id and -peers, the daemon is one member of a sharded cluster
// (DESIGN.md §11): a consistent-hash router places each community on one
// node, misrouted JSON requests are forwarded (or answered 421 not_owner),
// and the node streams its WAL to followers over the node's repl address.
// -follow subscribes this node to peers so it serves reads for their
// communities from fenced replicas:
//
//	holidayd -addr :8081 -node-id a -peers nodes.json -follow all
//
// See README.md for the full endpoint list and cluster quickstart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		demoSpec   = flag.String("demo", "", "create a community 'demo' from a graph spec at startup, e.g. gnp:n=100,p=0.05")
		demoKind   = flag.String("demo-kind", "", "scheduling kind for the -demo community: 'classic' (default) or 'poly' edge scheduling")
		demoDemand = flag.Int64("demo-demand", 64,
			"with -demo-kind poly, the default per-edge frequency demand (a marriage must gather at least once every this many slots)")
		seed      = flag.Uint64("seed", 1, "random seed for the -demo graph generator")
		dataDir   = flag.String("data-dir", "", "durability directory (snapshot + churn WAL); empty serves from memory only")
		snapEvery = flag.Duration("snapshot-every", 5*time.Minute,
			"periodic snapshot interval with -data-dir; 0 snapshots only on graceful shutdown")
		walSync = flag.Duration("wal-sync", persist.DefaultSyncInterval,
			"WAL group-commit fsync interval with -data-dir; 0 fsyncs every record before acking")
		binMaxBatch = flag.Int("bin-max-batch", service.DefaultMaxBinBatch,
			"max frames one /v1/bin request may carry")
		churnBatch = flag.Int("churn-batch", 1,
			"coalesce up to this many single-op churn requests per community into one amortized flush; 1 applies each op directly")
		churnFlush = flag.Duration("churn-flush-ms", service.DefaultChurnFlushInterval,
			"max time a coalesced churn op may wait before its batch is flushed")
		nodeID = flag.String("node-id", "",
			"this node's id in the cluster topology; empty runs a single standalone node")
		peersFile = flag.String("peers", "",
			"cluster topology file (nodes.json) naming every member; requires -node-id")
		replAddr = flag.String("repl", "",
			"replication listen address; defaults to this node's repl entry in the topology")
		maxQPS = flag.Int("max-qps", 0,
			"admission limit on data-plane requests per second (0 = unlimited); "+
				"requests beyond the limit queue rather than fail")
		follow = flag.String("follow", "",
			"comma-separated peer node ids to replicate from, or 'all' for every peer with a repl address")
		failoverAfter = flag.Duration("failover-after", cluster.DefaultDeadline,
			"missed-heartbeat deadline before a followed owner is probed and, if dead, failed over "+
				"to its most-caught-up replica; 0 disables automatic failover and placement gossip")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "holidayd: -addr must not be empty")
		flag.Usage()
		os.Exit(1)
	}
	if *snapEvery < 0 {
		fmt.Fprintln(os.Stderr, "holidayd: -snapshot-every must be ≥ 0")
		flag.Usage()
		os.Exit(1)
	}
	if *walSync < 0 {
		fmt.Fprintln(os.Stderr, "holidayd: -wal-sync must be ≥ 0")
		flag.Usage()
		os.Exit(1)
	}
	if *binMaxBatch < 1 {
		fmt.Fprintln(os.Stderr, "holidayd: -bin-max-batch must be ≥ 1")
		flag.Usage()
		os.Exit(1)
	}
	if *churnBatch < 1 {
		fmt.Fprintln(os.Stderr, "holidayd: -churn-batch must be ≥ 1")
		flag.Usage()
		os.Exit(1)
	}
	if *churnFlush <= 0 {
		fmt.Fprintln(os.Stderr, "holidayd: -churn-flush-ms must be > 0")
		flag.Usage()
		os.Exit(1)
	}
	if (*nodeID == "") != (*peersFile == "") {
		fmt.Fprintln(os.Stderr, "holidayd: -node-id and -peers must be set together")
		flag.Usage()
		os.Exit(1)
	}
	switch *demoKind {
	case "", service.KindClassic, service.KindPoly:
	default:
		fmt.Fprintf(os.Stderr, "holidayd: -demo-kind %q: want %q or %q\n", *demoKind, service.KindClassic, service.KindPoly)
		flag.Usage()
		os.Exit(1)
	}
	if *demoDemand < 1 {
		fmt.Fprintln(os.Stderr, "holidayd: -demo-demand must be ≥ 1")
		flag.Usage()
		os.Exit(1)
	}

	// Cluster topology, when this daemon is a member of one.
	var router *service.Router
	var selfNode service.Node
	if *peersFile != "" {
		topo, err := service.LoadTopology(*peersFile)
		if err != nil {
			fatal(err)
		}
		router, err = service.NewRouter(service.RouterOpts{Self: *nodeID, Nodes: topo.Nodes})
		if err != nil {
			fatal(err)
		}
		for _, n := range topo.Nodes {
			if n.ID == *nodeID {
				selfNode = n
			}
		}
		if *replAddr == "" {
			*replAddr = selfNode.Repl
		}
	}

	var reg *service.Owner
	var store *persist.Store
	if *dataDir != "" {
		opts := persist.Options{Sync: persist.SyncBatch, SyncInterval: *walSync}
		if *walSync == 0 {
			opts.Sync = persist.SyncAlways
		}
		var err error
		store, err = persist.Open(*dataDir, opts)
		if err != nil {
			fatal(err)
		}
		reg, err = store.Load()
		if err != nil {
			fatal(err)
		}
		log.Printf("restored %d communities from %s", len(reg.List()), *dataDir)
	} else {
		reg = service.New(service.Opts{})
	}

	// In cluster mode the node's journal is wrapped in a replication source:
	// every record is durable first (when -data-dir is set), then streamed
	// to subscribed followers. Attach before -demo so even boot-time writes
	// replicate.
	var src *cluster.Source
	if router != nil {
		sopts := cluster.SourceOpts{Owner: reg, Router: router}
		if store != nil {
			// A community taken over mid-handoff (or by failover) should
			// survive a crash here even before the next periodic snapshot.
			st := store
			sopts.OnTakeover = func(id string) {
				go func() {
					if err := st.SaveSnapshot(reg); err != nil {
						log.Printf("post-takeover snapshot failed: %v", err)
					}
				}()
			}
		}
		if store != nil {
			sopts.Journal = store.Journal()
			if w, ok := sopts.Journal.(interface{ Seq() uint64 }); ok {
				sopts.Start = w.Seq()
			}
		}
		var err error
		if src, err = cluster.NewSource(sopts); err != nil {
			fatal(err)
		}
		reg.SetJournal(src)
		// Restored communities this topology places elsewhere are replicas
		// here: fence them so only their owner takes writes.
		for _, id := range reg.List() {
			if !router.IsLocal(id) {
				reg.Fence(id)
			}
		}
	}

	if *demoSpec != "" {
		if router != nil && !router.IsLocal("demo") {
			log.Printf("community %q is placed on node %s; skipping -demo here", "demo", router.Place("demo"))
		} else if _, exists := reg.Get("demo"); exists {
			log.Printf("community %q already restored from %s; skipping -demo", "demo", *dataDir)
		} else {
			g, err := graph.ParseSpec(*demoSpec, *seed)
			if err != nil {
				fatal(err)
			}
			if *demoKind == service.KindPoly {
				edges := make([][2]int, 0, g.M())
				for _, e := range g.Edges() {
					edges = append(edges, [2]int{e.U, e.V})
				}
				if _, err := reg.CreateSpec(service.CreateSpec{
					ID:            "demo",
					Families:      g.N(),
					Edges:         edges,
					Kind:          service.KindPoly,
					DefaultDemand: *demoDemand,
				}); err != nil {
					fatal(err)
				}
				log.Printf("created poly community %q: %d holidays, %d marriages, default demand %d",
					"demo", g.N(), g.M(), *demoDemand)
			} else {
				if _, err := reg.CreateFromGraph("demo", g, ""); err != nil {
					fatal(err)
				}
				log.Printf("created community %q: %d families, %d marriages", "demo", g.N(), g.M())
			}
		}
	}

	// SIGTERM is how docker/k8s stop a container; trapping only SIGINT
	// used to skip graceful shutdown — and snapshot-on-shutdown — anywhere
	// but an interactive terminal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Replication: serve this node's stream and subscribe to followed peers.
	var followers map[string]*cluster.Follower
	if src != nil && *replAddr != "" {
		ln, err := net.Listen("tcp", *replAddr)
		if err != nil {
			fatal(err)
		}
		go func() {
			if err := src.Serve(ln); err != nil {
				log.Printf("replication listener: %v", err)
			}
		}()
		log.Printf("replicating on %s", *replAddr)
	}
	if *follow != "" {
		if router == nil {
			fatal(errors.New("-follow requires -node-id and -peers"))
		}
		followers = startFollowers(ctx, reg, router, *nodeID, *follow)
	}

	hopts := service.HandlerOpts{
		Owner:       reg,
		Router:      router,
		Node:        *nodeID,
		MaxBinBatch: *binMaxBatch,
	}
	if len(followers) > 0 {
		fs := followers
		hopts.Lag = func() map[string]uint64 {
			lag := make(map[string]uint64)
			for _, f := range fs {
				for id, l := range f.Lag() {
					lag[id] = l
				}
			}
			return lag
		}
	}
	if src != nil {
		hopts.Handoff = func(community string, table service.Placement) (uint64, time.Duration, error) {
			res, err := cluster.Handoff(reg, src, router, community, table, 0)
			if err != nil {
				return 0, 0, err
			}
			log.Printf("handed off %q to %s at epoch %d (cut %d, pause %v)",
				community, table.Assign[community], table.Epoch, res.CutSeq, res.Pause)
			return res.CutSeq, res.Pause, nil
		}
	}
	var coalescer *service.Coalescer
	if *churnBatch > 1 {
		coalescer = service.NewCoalescer(*churnBatch, *churnFlush)
		hopts.Churn = coalescer
		log.Printf("coalescing churn: up to %d ops per flush, %v max wait", *churnBatch, *churnFlush)
	}
	var handler http.Handler = service.NewHandler(hopts)
	// The failover plane: placement gossip plus, for followed owners, the
	// missed-heartbeat detector that elects a most-caught-up replica. Built
	// after NewHandler so its fence-reconciliation watcher sees every table
	// the detector installs; the synchronous boot round adopts the cluster's
	// current epoch before this node serves (a rejoining stale owner
	// refences its lost communities here, not after its first bad write).
	if router != nil && *failoverAfter > 0 {
		det, err := cluster.NewDetector(cluster.DetectorOpts{
			Router:    router,
			Owner:     reg,
			Followers: followers,
			Deadline:  *failoverAfter,
			Logf:      log.Printf,
		})
		if err != nil {
			fatal(err)
		}
		det.Gossip(ctx)
		go det.Run(ctx)
		log.Printf("failover detector armed: deadline %v over %d followed peers", *failoverAfter, len(followers))
	}
	if *maxQPS > 0 {
		handler = admissionLimit(handler, *maxQPS)
		log.Printf("admission limit: %d data-plane requests/s", *maxQPS)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("holidayd listening on %s", *addr)

	if store != nil && *snapEvery > 0 {
		go func() {
			t := time.NewTicker(*snapEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := store.SaveSnapshot(reg); err != nil {
						log.Printf("periodic snapshot failed: %v", err)
					} else {
						log.Printf("snapshot saved to %s", *dataDir)
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		// The listener died on its own (port in use, fd limit, …); there is
		// no graceful state to save beyond what the WAL already has.
		if coalescer != nil {
			coalescer.Close()
		}
		if src != nil {
			src.Close()
		}
		closeStore(store, reg, false)
		fatal(err)
	case <-ctx.Done():
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			// Timed out draining in-flight requests; keep going — the
			// snapshot below must still be written.
			log.Printf("shutdown: %v", err)
		}
		// Wait for the serve goroutine so no handler races the snapshot,
		// and surface the ListenAndServe error instead of dropping it.
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		// Flush open churn batches after the server stopped accepting
		// requests and before the journal closes: every acknowledged op
		// must reach the WAL.
		if coalescer != nil {
			coalescer.Close()
		}
		if src != nil {
			src.Close()
		}
		closeStore(store, reg, true)
	}
}

// startFollowers subscribes this node to the peers named by the -follow
// flag ("all" or a comma-separated id list), each replicating exactly the
// communities the router places on that peer.
func startFollowers(ctx context.Context, reg *service.Owner, router *service.Router, self, follow string) map[string]*cluster.Follower {
	var peers []service.Node
	if follow == "all" {
		for _, n := range router.Nodes() {
			if n.ID != self && n.Repl != "" {
				peers = append(peers, n)
			}
		}
	} else {
		for _, id := range strings.Split(follow, ",") {
			id = strings.TrimSpace(id)
			if id == "" || id == self {
				continue
			}
			var found *service.Node
			for _, n := range router.Nodes() {
				if n.ID == id {
					found = &n
					break
				}
			}
			if found == nil {
				fatal(fmt.Errorf("-follow %s: not in the topology", id))
			}
			if found.Repl == "" {
				fatal(fmt.Errorf("-follow %s: node has no repl address", id))
			}
			peers = append(peers, *found)
		}
	}
	followers := make(map[string]*cluster.Follower, len(peers))
	for _, peer := range peers {
		peerID := peer.ID
		f, err := cluster.NewFollower(cluster.FollowerOpts{
			Owner: reg,
			Node:  self,
			Addr:  peer.Repl,
			Accept: func(id string) bool {
				return router.Place(id) == peerID
			},
			Logf: log.Printf,
		})
		if err != nil {
			fatal(err)
		}
		go f.Run(ctx)
		followers[peerID] = f
		log.Printf("following node %s at %s", peerID, peer.Repl)
	}
	return followers
}

// admissionLimit caps data-plane throughput at qps requests per second with
// a blocking token bucket: excess requests queue on the bucket instead of
// failing, so clients see latency — not errors — at the capacity ceiling.
// Liveness and status probes bypass the limit; they must stay responsive on
// a saturated node.
func admissionLimit(h http.Handler, qps int) http.Handler {
	// Refill from elapsed wall time rather than tick counts: tickers
	// coalesce missed ticks under load, which would silently lower the
	// cap on a busy host. The bucket holds up to 250ms of burst so a late
	// refill can catch up without exceeding the average rate.
	const interval = 20 * time.Millisecond
	cap := qps / 4
	if cap < 1 {
		cap = 1
	}
	tokens := make(chan struct{}, cap)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		last := time.Now()
		credit := 0.0
		for range t.C {
			now := time.Now()
			credit += float64(qps) * now.Sub(last).Seconds()
			last = now
			n := int(credit)
			credit -= float64(n)
			for i := 0; i < n; i++ {
				select {
				case tokens <- struct{}{}:
				default:
				}
			}
		}
	}()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" && r.URL.Path != "/v1/status" {
			<-tokens
		}
		h.ServeHTTP(w, r)
	})
}

// closeStore snapshots (when graceful) and closes the durability store.
func closeStore(store *persist.Store, reg *service.Owner, snapshot bool) {
	if store == nil {
		return
	}
	if snapshot {
		if err := store.SaveSnapshot(reg); err != nil {
			log.Printf("shutdown snapshot failed: %v", err)
		} else {
			log.Printf("snapshot saved to %s", store.Dir())
		}
	}
	if err := store.Close(); err != nil {
		log.Printf("closing WAL: %v", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "holidayd:", err)
	os.Exit(1)
}
