// Command holidayctl operates a holidayd cluster from its static topology
// file (nodes.json, see DESIGN.md §11–12):
//
//	holidayctl -topology nodes.json status
//	holidayctl -topology nodes.json place demo other-community
//	holidayctl -topology nodes.json join d http://127.0.0.1:8084
//	holidayctl -topology nodes.json rebalance
//	holidayctl -topology nodes.json promote demo b
//
// status polls every member's /v1/status and renders the cluster table:
// placement epoch, per-node community counts, then per-community detail,
// where a follower row shows its owner row's seq beside its own.
// place resolves consistent-hash placement client-side (the same pure
// function the daemons compute, so no node needs to be up). join appends a
// member to the topology file and — when the cluster is reachable — live-
// rebalances onto it: each moved community is streamed to the new node by
// its owner (snapshot + WAL tail over the §9 framing) and flips at a new
// placement epoch, no restarts. rebalance runs the same move plan against
// the current membership. promote is the break-glass ownership override
// for when the automatic failover cannot run (a cluster running with
// -failover-after 0, or a partition the detector cannot see through);
// under normal operation a dead owner's communities fail over to their
// most-caught-up replicas with no operator involved.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	topoPath := flag.String("topology", "nodes.json", "cluster topology file")
	timeout := flag.Duration("timeout", 3*time.Second, "per-node HTTP timeout")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	topo, err := service.LoadTopology(*topoPath)
	if err != nil {
		fatal(err)
	}
	client := service.NewClient(&http.Client{Timeout: *timeout})

	switch cmd, rest := args[0], args[1:]; cmd {
	case "status":
		err = status(os.Stdout, client, topo)
	case "place":
		err = place(os.Stdout, topo, rest)
	case "join":
		err = join(os.Stdout, *topoPath, topo, rest)
	case "rebalance":
		err = rebalance(os.Stdout, topo)
	case "promote":
		err = promote(os.Stdout, client, topo, rest)
	default:
		fmt.Fprintf(os.Stderr, "holidayctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: holidayctl [-topology nodes.json] <command> [args]

commands:
  status                     poll every member's /v1/status (epoch + per-node table)
  place <community>...       resolve placement for community ids
  join <id> <addr>           add a member to the topology file and live-rebalance onto it
  rebalance                  move every community to its ring placement via live handoffs
  promote <community> <node> break-glass: force ownership without a handoff
                             (normal failover is automatic; see -failover-after)
`)
	flag.PrintDefaults()
}

func status(w io.Writer, client *service.Client, topo service.Topology) error {
	type row struct {
		node service.Node
		st   service.NodeStatus
		err  error
	}
	rows := make([]row, 0, len(topo.Nodes))
	for _, n := range topo.Nodes {
		st, err := client.Status(context.Background(), n.Addr)
		rows = append(rows, row{node: n, st: st, err: err})
	}

	// The cluster table: epoch and community counts per node. Epochs can
	// disagree transiently while gossip converges — showing each node's own
	// epoch is the point.
	fmt.Fprintf(w, "%-8s %-24s %-6s %-6s %-6s %-8s\n", "NODE", "ADDR", "STATE", "EPOCH", "OWNS", "FOLLOWS")
	for _, r := range rows {
		if r.err != nil {
			fmt.Fprintf(w, "%-8s %-24s %-6s %-6s %-6s %-8s  (%v)\n", r.node.ID, r.node.Addr, "down", "-", "-", "-", r.err)
			continue
		}
		owned, following := 0, 0
		for _, c := range r.st.Communities {
			if c.Role == "owner" {
				owned++
			} else {
				following++
			}
		}
		fmt.Fprintf(w, "%-8s %-24s %-6s %-6d %-6d %-8d\n", r.node.ID, r.node.Addr, "up", r.st.Epoch, owned, following)
	}

	// A follower row shows its owner row's seq beside its own. The lag is
	// the difference when both rows count in one sequence space, the
	// `space` of each /v1/status row; a replica that has yet to receive a
	// move's takeover record still counts in the old owner's (DESIGN §12),
	// which is why no difference is printed.
	ownerSeq := map[string]uint64{}
	for _, r := range rows {
		for _, c := range r.st.Communities {
			if _, seen := ownerSeq[c.ID]; !seen && c.Role == "owner" {
				ownerSeq[c.ID] = c.Seq
			}
		}
	}
	for _, r := range rows {
		if r.err != nil {
			continue
		}
		for _, c := range r.st.Communities {
			owner := ""
			if m, ok := ownerSeq[c.ID]; ok && c.Role != "owner" {
				owner = fmt.Sprintf("owner seq %-8d ", m)
			}
			fmt.Fprintf(w, "%-8s %-16s %-8s %-8s seq %-8d %splaced on %s\n", r.node.ID, c.ID, c.Kind, c.Role, c.Seq, owner, c.Placed)
		}
		if len(r.st.Overrides) > 0 {
			keys := make([]string, 0, len(r.st.Overrides))
			for k := range r.st.Overrides {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "%-8s assign: %s -> %s\n", r.node.ID, k, r.st.Overrides[k])
			}
		}
	}
	return nil
}

func place(w io.Writer, topo service.Topology, communities []string) error {
	if len(communities) == 0 {
		return fmt.Errorf("place: no community ids given")
	}
	rt, err := service.NewRouter(service.RouterOpts{Nodes: topo.Nodes})
	if err != nil {
		return err
	}
	for _, id := range communities {
		node := rt.Place(id)
		addr, _ := rt.Addr(node)
		fmt.Fprintf(w, "%-24s -> %s (%s)\n", id, node, addr)
	}
	return nil
}

func join(w io.Writer, path string, topo service.Topology, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("join: want <id> <addr>")
	}
	n := service.Node{ID: args[0], Addr: args[1]}
	before, err := service.NewRouter(service.RouterOpts{Nodes: topo.Nodes})
	if err != nil {
		return err
	}
	for _, m := range topo.Nodes {
		if m.ID == n.ID {
			return fmt.Errorf("join: node %q already in the topology", n.ID)
		}
	}
	topo.Nodes = append(topo.Nodes, n)
	after, err := service.NewRouter(service.RouterOpts{Nodes: topo.Nodes})
	if err != nil {
		return err
	}
	// The consistent-hash selling point, made visible: sample the key space
	// and report how much placement actually moves (≈1/n, not all of it).
	const sample = 4096
	moved := 0
	for i := 0; i < sample; i++ {
		key := fmt.Sprintf("community-%d", i)
		if before.Place(key) != after.Place(key) {
			moved++
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(service.Topology{Nodes: topo.Nodes}); err != nil {
		return err
	}
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	fmt.Fprintf(w, "joined %s; %d nodes; ~%.1f%% of placements move\n",
		n.ID, len(topo.Nodes), 100*float64(moved)/sample)

	// Live rebalance: if the cluster (including the new node) is up, move
	// the communities now — owners stream each one to the joiner and the
	// placement epoch advances, no restarts. A down cluster degrades to the
	// file edit alone.
	if err := rebalance(w, topo); err != nil {
		fmt.Fprintf(w, "live rebalance not run (%v)\n", err)
		fmt.Fprintln(w, "start the new node, then run: holidayctl rebalance")
	}
	return nil
}

// rebalance moves every community onto its consistent-hash placement under
// the topology's membership, one live handoff per move, publishing the
// resulting table cluster-wide.
func rebalance(w io.Writer, topo service.Topology) error {
	seed := ""
	for _, n := range topo.Nodes {
		if n.Addr != "" {
			seed = n.Addr
			break
		}
	}
	if seed == "" {
		return fmt.Errorf("rebalance: no node in the topology has an address")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	moves, table, err := cluster.Rebalance(ctx, seed, topo.Nodes, func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	})
	if err != nil {
		return err
	}
	if len(moves) == 0 {
		fmt.Fprintf(w, "already balanced; epoch %d\n", table.Epoch)
		return nil
	}
	var worst time.Duration
	for _, mv := range moves {
		fmt.Fprintf(w, "moved %-16s %s -> %-8s cut %-8d pause %v\n", mv.Community, mv.From, mv.To, mv.CutSeq, mv.Pause)
		if mv.Pause > worst {
			worst = mv.Pause
		}
	}
	fmt.Fprintf(w, "%d communities moved; epoch %d; worst write pause %v\n", len(moves), table.Epoch, worst)
	return nil
}

// promote force-takes ownership without a handoff: the target node bumps
// the epoch with an assignment to itself and unfences its replica. Data
// logged on the old owner after its last replicated record is lost —
// that's why this is break-glass, not the failover path.
func promote(w io.Writer, client *service.Client, topo service.Topology, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("promote: want <community> <node>")
	}
	community, node := args[0], args[1]
	var addr string
	for _, n := range topo.Nodes {
		if n.ID == node {
			addr = n.Addr
		}
	}
	if addr == "" {
		return fmt.Errorf("promote: node %q not in the topology", node)
	}
	out, err := client.Promote(context.Background(), addr, community)
	if err != nil {
		return fmt.Errorf("promote: node %s: %w", node, err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "promoted: %s\n", line)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "holidayctl:", err)
	os.Exit(1)
}
