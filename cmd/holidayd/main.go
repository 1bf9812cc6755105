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
// and the node streams its WAL to followers on its one listener: a
// follower's GET /v1/stream?from=N is answered with the frame stream, and
// a handoff POSTs its offer and its tail to the same route. -follow
// subscribes this node to peers so it serves reads for their communities
// from fenced replicas; -follow all also subscribes to each member a later
// placement table adds:
//
//	holidayd -addr :8081 -node-id a -peers nodes.json -follow all
//
// A takeover of a community (handoff, election, promote) is journaled like
// any write (DESIGN.md §12), so the WAL restores it.
//
// See README.md for the full endpoint list and cluster quickstart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/service"
)

func main() {
	cfg, err := parseConfig(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "holidayd:", err)
		flag.Usage()
		os.Exit(1)
	}
	// SIGTERM is how docker/k8s stop a container; trapping only SIGINT
	// used to skip graceful shutdown — and snapshot-on-shutdown — anywhere
	// but an interactive terminal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "holidayd:", err)
		os.Exit(1)
	}
}

// config is holidayd's command line.
type config struct {
	addr          string
	demoSpec      string
	demoKind      string
	demoDemand    int64
	seed          uint64
	dataDir       string
	snapEvery     time.Duration
	walSync       time.Duration
	nodeID        string
	peersFile     string
	maxQPS        int
	follow        string
	failoverAfter time.Duration
}

// parseConfig binds holidayd's flags on fs, parses args into a config, and
// validates it.
func parseConfig(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.demoSpec, "demo", "", "create a community 'demo' from a graph spec at startup, e.g. gnp:n=100,p=0.05")
	fs.StringVar(&c.demoKind, "demo-kind", "", "scheduling kind for the -demo community: 'classic' (default) or 'poly' edge scheduling")
	fs.Int64Var(&c.demoDemand, "demo-demand", 64,
		"with -demo-kind poly, the default per-edge frequency demand (a marriage must gather at least once every this many slots)")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed for the -demo graph generator")
	fs.StringVar(&c.dataDir, "data-dir", "", "durability directory (snapshot + churn WAL); empty serves from memory only")
	fs.DurationVar(&c.snapEvery, "snapshot-every", 5*time.Minute,
		"periodic snapshot interval with -data-dir; 0 snapshots only on graceful shutdown")
	fs.DurationVar(&c.walSync, "wal-sync", persist.DefaultSyncInterval,
		"WAL group-commit fsync interval with -data-dir; 0 fsyncs every record before acking")
	fs.StringVar(&c.nodeID, "node-id", "",
		"this node's id in the cluster topology; empty runs a single standalone node")
	fs.StringVar(&c.peersFile, "peers", "",
		"cluster topology file (nodes.json) naming every member; requires -node-id")
	fs.IntVar(&c.maxQPS, "max-qps", 0,
		"admission limit on data-plane requests per second (0 = unlimited); "+
			"requests beyond the limit queue rather than fail")
	fs.StringVar(&c.follow, "follow", "",
		"comma-separated peer node ids to replicate from, or 'all' for every peer with an addr, "+
			"including members a later placement table adds")
	fs.DurationVar(&c.failoverAfter, "failover-after", cluster.DefaultDeadline,
		"how long a followed peer may leave this node's placement gossip unanswered before its communities are failed over "+
			"to their most-caught-up replicas; 0 disables automatic failover and placement gossip")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate checks the rules the flags state, the -demo spec's included,
// without reading any file or generating the -demo graph.
func (c *config) validate() error {
	switch {
	case c.addr == "":
		return errors.New("-addr must not be empty")
	case c.snapEvery < 0:
		return errors.New("-snapshot-every must be ≥ 0")
	case c.walSync < 0:
		return errors.New("-wal-sync must be ≥ 0")
	case (c.nodeID == "") != (c.peersFile == ""):
		return errors.New("-node-id and -peers must be set together")
	case c.follow != "" && c.peersFile == "":
		return errors.New("-follow requires -node-id and -peers")
	case c.demoKind != "" && c.demoKind != service.KindClassic && c.demoKind != service.KindPoly:
		return fmt.Errorf("-demo-kind %q: want %q or %q", c.demoKind, service.KindClassic, service.KindPoly)
	case c.demoDemand < 1:
		return errors.New("-demo-demand must be ≥ 1")
	}
	if c.demoSpec != "" {
		if err := graph.CheckSpec(c.demoSpec); err != nil {
			return fmt.Errorf("-demo: %w", err)
		}
	}
	return nil
}

// membership is this node's place in its cluster; the zero value is a
// standalone node.
type membership struct {
	router *service.Router
	peers  []service.Node // the peers -follow names
}

// membership loads the -peers topology and resolves -follow against it:
// "all" follows every peer with an addr, and each named peer must exist
// and have one.
func (c *config) membership() (membership, error) {
	if c.peersFile == "" {
		return membership{}, nil
	}
	topo, err := service.LoadTopology(c.peersFile)
	if err != nil {
		return membership{}, err
	}
	var m membership
	if m.router, err = service.NewRouter(service.RouterOpts{Self: c.nodeID, Nodes: topo.Nodes}); err != nil {
		return membership{}, err
	}
	nodes := m.router.Nodes()
	if c.follow == "all" {
		for _, n := range nodes {
			if n.ID != c.nodeID && n.Addr != "" {
				m.peers = append(m.peers, n)
			}
		}
		return m, nil
	}
	for _, id := range strings.Split(c.follow, ",") {
		id = strings.TrimSpace(id)
		if id == "" || id == c.nodeID {
			continue
		}
		i := slices.IndexFunc(nodes, func(n service.Node) bool { return n.ID == id })
		if i < 0 {
			return membership{}, fmt.Errorf("-follow %s: not in the topology", id)
		}
		if nodes[i].Addr == "" {
			return membership{}, fmt.Errorf("-follow %s: node has no addr", id)
		}
		m.peers = append(m.peers, nodes[i])
	}
	return m, nil
}

// run serves cfg until ctx is cancelled or the listener fails. The cluster
// topology is resolved before the data directory is opened. run returns
// only after every goroutine it started has exited and the store is
// closed; the final snapshot is written on a graceful stop only.
func run(ctx context.Context, cfg *config) error {
	m, err := cfg.membership()
	if err != nil {
		return err
	}
	var reg *service.Owner
	var store *persist.Store
	if cfg.dataDir != "" {
		opts := persist.Options{Sync: persist.SyncBatch, SyncInterval: cfg.walSync}
		if cfg.walSync == 0 {
			opts.Sync = persist.SyncAlways
		}
		if store, err = persist.Open(cfg.dataDir, opts); err != nil {
			return err
		}
		if reg, err = store.Load(); err != nil {
			store.Close()
			return err
		}
		log.Printf("restored %d communities from %s", len(reg.List()), cfg.dataDir)
	} else {
		reg = service.New(service.Opts{})
	}
	err = serve(ctx, cfg, m, reg, store)
	if store == nil {
		return err
	}
	// A failed boot or listener has nothing to save beyond what the WAL
	// already holds.
	if err == nil {
		if err := store.SaveSnapshot(reg); err != nil {
			log.Printf("shutdown snapshot failed: %v", err)
		} else {
			log.Printf("snapshot saved to %s", cfg.dataDir)
		}
	}
	if err := store.Close(); err != nil {
		log.Printf("closing WAL: %v", err)
	}
	return err
}

// serve runs the node over reg until ctx is cancelled, which is a graceful
// stop and returns nil, or until boot or the listener fails. Every
// goroutine it starts has exited by the time it returns.
func serve(ctx context.Context, cfg *config, m membership, reg *service.Owner, store *persist.Store) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}

	// In cluster mode the node's journal is wrapped in a replication source:
	// every record is durable first (when -data-dir is set), then streamed
	// to subscribed followers. Attach before -demo so even boot-time writes
	// replicate. A takeover is journaled like any write, so the WAL restores
	// it and the source streams it to this node's followers.
	var src *cluster.Source
	if m.router != nil {
		sopts := cluster.SourceOpts{Owner: reg, Router: m.router}
		if store != nil {
			sopts.Journal = store.Journal()
		}
		var err error
		if src, err = cluster.NewSource(sopts); err != nil {
			return err
		}
		reg.SetJournal(src)
	}

	// One listener: the API and, in a cluster, the stream route beside it.
	// Building the handler syncs the fences: restored communities this
	// topology places elsewhere are replicas here, fenced before -demo runs
	// and before any stream is followed, so only their owner takes writes.
	mux := http.NewServeMux()
	hopts := service.HandlerOpts{Owner: reg, Router: m.router}
	if src != nil {
		mux.Handle(cluster.StreamPath, src)
		hopts.Handoff = func(community string, table service.Placement) (uint64, time.Duration, error) {
			cut, pause, err := src.Handoff(community, table)
			if err == nil {
				log.Printf("handed off %q to %s at epoch %d (cut %d, pause %v)",
					community, table.Assign[community], table.Epoch, cut, pause)
			}
			return cut, pause, err
		}
	}
	mux.Handle("/", service.NewHandler(hopts))
	var handler http.Handler = mux

	if cfg.demoSpec != "" {
		if err := createDemo(cfg, m.router, reg); err != nil {
			return err
		}
	}

	// Replication: subscribe to followed peers' streams. Each streams the
	// communities it owns, and the sequence spaces of their records decide
	// which copy of a moved community is current. -follow all also follows
	// each member a later table adds, such as a node that joins, once.
	var followMu sync.Mutex
	followed := map[string]bool{}
	follow := func(peer service.Node) {
		followMu.Lock()
		defer followMu.Unlock()
		if followed[peer.ID] || ctx.Err() != nil { // no spawn once serve is returning
			return
		}
		followed[peer.ID] = true
		f, _ := cluster.NewFollower(cluster.FollowerOpts{Owner: reg, Addr: peer.Addr, Logf: log.Printf}) // fails only without both
		spawn(func() { f.Run(ctx) })
		log.Printf("following node %s at %s", peer.ID, peer.Addr)
	}
	for _, peer := range m.peers {
		follow(peer)
	}
	if cfg.follow == "all" {
		m.router.OnChange(func(p service.Placement) {
			for _, n := range p.Nodes {
				if n.ID != cfg.nodeID && n.Addr != "" {
					follow(n)
				}
			}
		})
	}

	if store != nil {
		spawn(func() {
			tick := time.Tick(cfg.snapEvery) // nil, so never ready, for -snapshot-every 0
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick:
				}
				if err := store.SaveSnapshot(reg); err != nil {
					log.Printf("snapshot failed: %v", err)
				} else {
					log.Printf("snapshot saved to %s", cfg.dataDir)
				}
			}
		})
	}
	// The failover plane: placement gossip, whose answered pulls are the
	// detector's only proof of life, and an election of a most-caught-up
	// replica for any followed owner silent past the deadline. Built after
	// NewHandler so its fence-reconciliation watcher sees every table the
	// detector installs, and takes over what an election assigns here; the
	// synchronous boot round adopts the cluster's current epoch before this
	// node serves (a rejoining stale owner refences its lost communities
	// here, not after its first bad write).
	if m.router != nil && cfg.failoverAfter > 0 {
		det, err := cluster.NewDetector(cluster.DetectorOpts{
			Router:   m.router,
			Owner:    reg,
			Follows:  m.peers,
			Deadline: cfg.failoverAfter,
			Logf:     log.Printf,
		})
		if err != nil {
			return err
		}
		det.Gossip(ctx)
		spawn(func() { det.Run(ctx) })
		log.Printf("failover detector armed: deadline %v over %d followed peers", cfg.failoverAfter, len(m.peers))
	}
	if cfg.maxQPS > 0 {
		var refill func()
		handler, refill = admissionLimit(ctx, handler, cfg.maxQPS)
		spawn(refill)
		log.Printf("admission limit: %d data-plane requests/s", cfg.maxQPS)
	}
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if src != nil {
		// Shutdown waits for every request, and a subscription's never
		// ends on its own: closing the Source ends them.
		srv.RegisterOnShutdown(src.Close)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("holidayd listening on %s", cfg.addr)

	select {
	case err := <-errc:
		// The listener died on its own (port in use, fd limit, …).
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Timed out draining in-flight requests; keep going — the
		// snapshot must still be written.
		log.Printf("shutdown: %v", err)
	}
	// Wait for the serve goroutine, and surface the ListenAndServe error
	// instead of dropping it.
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	return nil
}

// createDemo creates the -demo community unless the topology places it on
// another node or the data directory already restored it.
func createDemo(cfg *config, router *service.Router, reg *service.Owner) error {
	if router != nil && !router.IsLocal("demo") {
		log.Printf("community %q is placed on node %s; skipping -demo here", "demo", router.Place("demo"))
		return nil
	}
	if _, exists := reg.Get("demo"); exists {
		log.Printf("community %q already restored from %s; skipping -demo", "demo", cfg.dataDir)
		return nil
	}
	g, err := graph.ParseSpec(cfg.demoSpec, cfg.seed)
	if err != nil {
		return err
	}
	if cfg.demoKind == service.KindPoly {
		if _, err := reg.CreateSpec(service.CreateSpec{
			ID: "demo", Families: g.N(), Edges: g.EdgePairs(), Kind: service.KindPoly, DefaultDemand: cfg.demoDemand,
		}); err != nil {
			return err
		}
		log.Printf("created poly community %q: %d families, %d marriages, default demand %d",
			"demo", g.N(), g.M(), cfg.demoDemand)
		return nil
	}
	if _, err := reg.CreateFromGraph("demo", g, ""); err != nil {
		return err
	}
	log.Printf("created community %q: %d families, %d marriages", "demo", g.N(), g.M())
	return nil
}

// admissionLimit caps data-plane throughput at qps requests per second with
// a blocking token bucket: excess requests queue on the bucket instead of
// failing, so clients see latency — not errors — at the capacity ceiling.
// Only the data plane queues: community reads and writes (/v1/communities
// and its legacy alias) and binary frames (/v1/bin/). Control routes must
// stay responsive on a saturated node: the failure detector takes an
// answered placement pull as proof of life, and a stream is one long
// request, not load. A bodiless request whose client goes while it queues
// returns unserved and spends no token; net/http notices a departed client
// only once the body, if any, is read. The caller runs the returned refill
// loop, which ends with ctx; from then on queued requests are admitted so
// a shutdown can drain them.
func admissionLimit(ctx context.Context, h http.Handler, qps int) (http.Handler, func()) {
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
	refill := func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		last := time.Now()
		credit := 0.0
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
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
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p := strings.TrimPrefix(r.URL.Path, "/v1"); strings.HasPrefix(p, "/communities") || strings.HasPrefix(p, "/bin/") {
			select {
			case <-tokens:
			case <-ctx.Done():
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	}), refill
}
