package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

// HandlerOpts configures NewHandler. Owner is the only required field; the
// zero values of the rest give a standalone single-node handler.
type HandlerOpts struct {
	// Owner is the node's community store (required).
	Owner *Owner

	// Router, when set, makes the handler cluster-aware: writes for
	// communities placed on other nodes are forwarded to their owner once
	// (421 not_owner if a forwarded request is still misplaced — stale
	// topologies must not loop), and reads for communities absent locally
	// are forwarded instead of answering 404. Its Self is the node id that
	// /v1/status reports and forwarded requests carry.
	Router *Router

	// Handoff, when set, serves POST /v1/handoff: stream the named community
	// to the node the offered table assigns it to, install the table, and
	// report the cut sequence and write-pause the move cost. Daemons wire it
	// to a cluster.Source's Handoff; without it the endpoint answers 501.
	Handoff func(community string, table Placement) (cutSeq uint64, pause time.Duration, err error)
}

// MaxBatch caps the frames one /v1/bin request body may carry and the edits
// one JSON churn batch may carry. Batches beyond it fail with 400 before any
// query is served.
const MaxBatch = 1024

// forwardHeader marks a request as having been routed once. A node
// receiving a marked request it still does not own answers 421 not_owner
// rather than forwarding again, so disagreeing topologies degrade to an
// error instead of a forwarding loop.
const forwardHeader = "X-Holiday-Forwarded"

// epochHeader carries the sender's placement epoch on forwarded requests
// and on epoch-refusal responses. A node receiving a write stamped with a
// newer epoch than its own table knows its placement is stale — serving
// could double-own a community it has already lost — so it answers 421
// not_owner and lets the placement gossip catch it up.
const epochHeader = "X-Holiday-Epoch"

// legacyDeprecation is the Deprecation header (RFC 9745) the unversioned
// route aliases carry: the date the /v1 prefix replaced them.
const legacyDeprecation = "@1786147200" // 2026-08-08T00:00:00Z

// NewHandler exposes an owner — and, with a Router, its cluster — over
// HTTP. JSON routes live under /v1/ (the unversioned originals remain as
// deprecated aliases answering identically plus a Deprecation header):
//
//	POST   /v1/communities                          create {id, families, edges, code}
//	GET    /v1/communities                          list ids
//	GET    /v1/communities/{id}                     stats
//	DELETE /v1/communities/{id}                     unregister
//	POST   /v1/communities/{id}/families            append a family → {family}
//	POST   /v1/communities/{id}/edges               marry {u, v} → {recolored}
//	DELETE /v1/communities/{id}/edges?u=U&v=V       divorce → {removed, recolored}
//	POST   /v1/communities/{id}/churn               batched churn [{op, u, v}, ...]
//	GET    /v1/communities/{id}/window?from=F&to=T  schedule window
//	GET    /v1/communities/{id}/families/{v}/next?from=F  next happy holiday
//	GET    /v1/status                               node role, epoch, per-community seq
//	GET    /v1/placement                            the installed placement table
//	POST   /v1/placement                            offer a table; installed iff it supersedes
//	POST   /v1/handoff                              stream a community to its new owner {community, table}
//	POST   /v1/promote                              take ownership of a community {community}
//	POST   /v1/bin/window                           batched binary windows
//	POST   /v1/bin/next                             batched binary next queries
//	POST   /v1/bin/churn                            batched binary churn
//	GET    /healthz                                 liveness
//
// Window and next queries answer from the community's cached frozen
// schedule; churn endpoints route through the §6 dynamic recoloring. The
// /v1/bin endpoint family speaks the internal/wire binary format (DESIGN.md
// §9): the request body is a batch of length-prefixed frames, the response
// the matching frames in order, and window answers are word-packed happy
// bitmaps emitted straight from the closed-form periodic schedules.
//
// Every failure, JSON or binary, carries the {code, message} envelope (see
// ErrCode). With a Router, JSON writes are forwarded to the placed owner;
// binary frames are never forwarded — a misplaced frame answers an
// in-position not_owner Error and the client re-routes.
func NewHandler(h HandlerOpts) http.Handler {
	if h.Owner == nil {
		panic("service: NewHandler requires an Owner")
	}
	a := &apiHandler{HandlerOpts: h, client: &http.Client{}}
	if h.Router != nil {
		a.node = h.Router.Self()
		// The table at construction and every installed table reconcile
		// local fences: communities the table places elsewhere stop taking
		// writes, and explicit assignments to this node take over their
		// fenced replicas. Ring-derived placement never auto-promotes —
		// only an explicit assignment (published by a handoff, failover
		// election, or promote) lifts a fence.
		syncFences(h.Owner, h.Router)
		h.Router.OnChange(func(Placement) { syncFences(h.Owner, h.Router) })
	}
	mux := http.NewServeMux()
	// route registers fn at its /v1 path and at the legacy unversioned
	// alias, which answers identically but advertises its deprecation.
	route := func(method, path string, fn http.HandlerFunc) {
		mux.HandleFunc(method+" /v1"+path, fn)
		mux.HandleFunc(method+" "+path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Deprecation", legacyDeprecation)
			fn(w, r)
		})
	}
	mux.HandleFunc("POST /v1/bin/window", a.binHandler(wire.KindWindowReq, a.serveBinWindow))
	mux.HandleFunc("POST /v1/bin/next", a.binHandler(wire.KindNextReq, a.serveBinNext))
	mux.HandleFunc("POST /v1/bin/churn", a.serveBinChurn)
	mux.HandleFunc("GET /v1/status", a.serveStatus)
	mux.HandleFunc("GET /v1/placement", a.servePlacementGet)
	mux.HandleFunc("POST /v1/placement", a.servePlacementSet)
	mux.HandleFunc("POST /v1/handoff", a.serveHandoff)
	mux.HandleFunc("POST /v1/promote", a.servePromote)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("POST", "/communities", a.serveCreate)
	route("GET", "/communities", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"communities": a.Owner.List()})
	})
	route("GET", "/communities/{id}", a.read(func(w http.ResponseWriter, r *http.Request, c *Community) {
		writeJSON(w, http.StatusOK, c.Stats())
	}))
	route("DELETE", "/communities/{id}", a.write(a.serveDelete))
	route("POST", "/communities/{id}/families", a.write(a.withCommunity(a.serveAddFamily)))
	route("POST", "/communities/{id}/edges", a.write(a.withCommunity(a.serveMarry)))
	route("DELETE", "/communities/{id}/edges", a.write(a.withCommunity(a.serveDivorce)))
	route("POST", "/communities/{id}/churn", a.write(a.withCommunity(a.serveChurn)))
	route("GET", "/communities/{id}/window", a.read(a.serveWindow))
	route("GET", "/communities/{id}/families/{v}/next", a.read(a.serveNext))
	return mux
}

// apiHandler carries the handler configuration and the forwarding client.
type apiHandler struct {
	HandlerOpts
	// node is this node's id, the Router's Self ("" when standalone).
	node   string
	client *http.Client
	// promoteMu serializes promotes' read-edit-publish of the placement
	// table: two racing at one epoch would tie, and the fingerprint winner
	// would drop the loser's assignment after its install succeeded.
	promoteMu sync.Mutex
}

// misplaced reports whether a request for community id must not be served
// locally, and if so answers it: forwarded once, with body standing in for
// r.Body when the handler already read it, then failing closed with 421
// not_owner.
func (a *apiHandler) misplaced(w http.ResponseWriter, r *http.Request, id string, body []byte) bool {
	if a.Router == nil {
		return false
	}
	node := a.Router.Place(id)
	if node == a.node {
		return false
	}
	if r.Header.Get(forwardHeader) != "" {
		WriteError(w, http.StatusMisdirectedRequest, a.notOwner(id, node))
		return true
	}
	a.forward(w, r, node, body)
	return true
}

// notOwner is the 421 not_owner answer, JSON or binary, for a community the
// placement puts on another node.
func (a *apiHandler) notOwner(id, node string) *Error {
	return Errf(CodeNotOwner, "community %q is owned by node %q, not %q", id, node, a.node)
}

// forward proxies the request to a peer node, stamping the loop guard. body
// replaces r.Body when the handler already consumed it.
func (a *apiHandler) forward(w http.ResponseWriter, r *http.Request, node string, body []byte) {
	addr, ok := a.Router.Addr(node)
	if !ok {
		WriteError(w, http.StatusServiceUnavailable,
			Errf(CodeUnavailable, "owner node %q has no address in the topology", node))
		return
	}
	var rd io.Reader = r.Body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, addr+r.URL.RequestURI(), rd)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, Errf(CodeInternal, "forward to %q: %v", node, err))
		return
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardHeader, a.node)
	req.Header.Set(epochHeader, strconv.FormatUint(a.Router.Epoch(), 10))
	resp, err := a.client.Do(req)
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, Errf(CodeUnavailable, "forward to %q: %v", node, err))
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// staleEpoch answers a write stamped with a placement epoch newer than
// this node's table: the sender provably holds a table this node has not
// seen, so serving could take a write for a community this node already
// lost. 421 not_owner, carrying the local epoch for diagnostics; the
// placement gossip closes the gap.
func (a *apiHandler) staleEpoch(w http.ResponseWriter, r *http.Request) bool {
	if a.Router == nil {
		return false
	}
	he := r.Header.Get(epochHeader)
	if he == "" {
		return false
	}
	remote, err := strconv.ParseUint(he, 10, 64)
	local := a.Router.Epoch()
	if err != nil || remote <= local {
		return false
	}
	w.Header().Set(epochHeader, strconv.FormatUint(local, 10))
	WriteError(w, http.StatusMisdirectedRequest, Errf(CodeNotOwner,
		"node %q placement epoch %d is stale; request carries epoch %d", a.node, local, remote))
	return true
}

// write wraps a mutating {id} endpoint with placement routing: misplaced
// requests are forwarded to the owner, local ones proceed (and fencing
// inside Owner backstops any disagreement).
func (a *apiHandler) write(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if a.staleEpoch(w, r) {
			return
		}
		if a.misplaced(w, r, r.PathValue("id"), nil) {
			return
		}
		fn(w, r)
	}
}

// read wraps a read-only {id} endpoint: a community present locally serves
// (replicas included); an absent one placed elsewhere forwards.
func (a *apiHandler) read(fn func(http.ResponseWriter, *http.Request, *Community)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		c, ok := a.Owner.Get(id)
		if !ok {
			if a.misplaced(w, r, id, nil) {
				return
			}
			WriteError(w, http.StatusNotFound, Errf(CodeNotFound, "no community %q", id))
			return
		}
		fn(w, r, c)
	}
}

// withCommunity resolves {id} locally or responds 404 — for write endpoints
// whose routing the write wrapper already settled.
func (a *apiHandler) withCommunity(fn func(http.ResponseWriter, *http.Request, *Community)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c, ok := a.Owner.Get(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, Errf(CodeNotFound, "no community %q", r.PathValue("id")))
			return
		}
		fn(w, r, c)
	}
}

func (a *apiHandler) serveCreate(w http.ResponseWriter, r *http.Request) {
	// The community id decides placement and lives in the body, so buffer it
	// before deciding whether this create is ours to serve.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxFrame))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("read request body: %w", err))
		return
	}
	var req createRequest
	if err := json.Unmarshal(body, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if a.staleEpoch(w, r) {
		return
	}
	if a.misplaced(w, r, req.ID, body) {
		return
	}
	c, err := a.Owner.CreateSpec(CreateSpec{
		ID: req.ID, Families: req.Families, Edges: req.Edges, Code: req.Code,
		Kind: req.Kind, Demands: req.Demands, DefaultDemand: req.DefaultDemand,
	})
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, c.Stats())
}

func (a *apiHandler) serveDelete(w http.ResponseWriter, r *http.Request) {
	ok, err := a.Owner.Delete(r.PathValue("id"))
	if err != nil {
		// A journal failure means the deletion is not durable; the community
		// stays registered and the client must not believe it gone.
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		WriteError(w, http.StatusNotFound, Errf(CodeNotFound, "no community %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
}

func (a *apiHandler) serveAddFamily(w http.ResponseWriter, r *http.Request, c *Community) {
	fam, err := c.AddFamily()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"family": fam})
}

func (a *apiHandler) serveMarry(w http.ResponseWriter, r *http.Request, c *Community) {
	var req edgeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	res, err := c.edit(core.Edit{Op: core.EditInsert, U: req.U, V: req.V, Demand: req.Demand})
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"recolored": res.Recolored})
}

func (a *apiHandler) serveDivorce(w http.ResponseWriter, r *http.Request, c *Community) {
	u, errU := strconv.Atoi(r.URL.Query().Get("u"))
	v, errV := strconv.Atoi(r.URL.Query().Get("v"))
	if errU != nil || errV != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("query params u and v must be integers"))
		return
	}
	res, err := c.edit(core.Edit{Op: core.EditDelete, U: u, V: v})
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"removed": res.Applied, "recolored": res.Recolored})
}

func (a *apiHandler) serveChurn(w http.ResponseWriter, r *http.Request, c *Community) {
	var reqs []churnOpRequest
	if !decodeJSON(w, r, &reqs) {
		return
	}
	if len(reqs) == 0 {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("empty churn batch"))
		return
	}
	if len(reqs) > MaxBatch {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("batch exceeds %d edits", MaxBatch))
		return
	}
	edits := make([]core.Edit, len(reqs))
	for i, q := range reqs {
		switch q.Op {
		case "marry":
			edits[i] = core.Edit{Op: core.EditInsert, U: q.U, V: q.V, Demand: q.Demand}
		case "divorce":
			edits[i] = core.Edit{Op: core.EditDelete, U: q.U, V: q.V}
		default:
			WriteError(w, http.StatusBadRequest, fmt.Errorf("edit %d: op %q is not \"marry\" or \"divorce\"", i, q.Op))
			return
		}
	}
	res := make([]core.EditResult, len(edits))
	recolorings, err := c.ChurnBatch(edits, res)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	resp := churnResponse{
		Community:   c.ID(),
		Seq:         c.Seq(),
		Recolorings: recolorings,
		Results:     make([]churnOpResult, len(res)),
	}
	for i, r := range res {
		if r.Applied {
			resp.Applied++
		}
		resp.Results[i] = churnOpResult{Applied: r.Applied, Recolored: r.Recolored}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *apiHandler) serveWindow(w http.ResponseWriter, r *http.Request, c *Community) {
	from, err := queryInt64(r, "from", 1)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Reject from beyond the servable horizon before deriving the
	// default end: from+51 overflows int64 for from near the maximum,
	// which used to surface as a baffling "window [..,..] is empty".
	if from > core.MaxHoliday {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("window start %d beyond last servable holiday %d", from, core.MaxHoliday))
		return
	}
	defTo := from + 51 // default: one year of weekly holidays
	if defTo > core.MaxHoliday {
		defTo = core.MaxHoliday
	}
	to, err := queryInt64(r, "to", defTo)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	sched, err := c.windowSchedule(from, to)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The body is appended straight from the frozen schedule's class member
	// lists, read in place: the bytes encoding/json renders for
	// {community, from, to, holidays: [{holiday, happy}, ...]}, the id
	// quoted by encoding/json itself so its escaping is the same.
	id, _ := json.Marshal(c.ID())
	s := getStage()
	b := append(s.b, `{"community":`...)
	b = append(b, id...)
	b = append(b, `,"from":`...)
	b = strconv.AppendInt(b, from, 10)
	b = append(b, `,"to":`...)
	b = strconv.AppendInt(b, to, 10)
	b = append(b, `,"holidays":[`...)
	sched.Window(from, to, func(t int64, happy []int) {
		b = append(b, `{"holiday":`...)
		b = strconv.AppendInt(b, t, 10)
		b = append(b, `,"happy":[`...)
		for i, v := range happy {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, "]},"...)
	})
	s.b = append(b[:len(b)-1], "]}\n"...) // a window is never empty: drop the last row's comma
	s.send(w, http.StatusOK, "application/json")
}

func (a *apiHandler) serveNext(w http.ResponseWriter, r *http.Request, c *Community) {
	v, err := strconv.Atoi(r.PathValue("v"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("family id %q is not an integer", r.PathValue("v")))
		return
	}
	from, err := queryInt64(r, "from", 1)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	next, err := c.NextHappy(v, from)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, nextResponse{Community: c.ID(), Family: v, From: from, Next: next})
}

// CommunityStatus is one community's row in the /v1/status answer.
type CommunityStatus struct {
	ID string `json:"id"`
	// Kind is the community's scheduling kind ("classic" or "poly").
	Kind string `json:"kind,omitempty"`
	// Role is "owner" for communities this node takes writes for and
	// "follower" for fenced replicas.
	Role string `json:"role"`
	// Placed is the node the topology places the community on (only with a
	// router).
	Placed string `json:"placed,omitempty"`
	// Seq is the last journal sequence applied locally, and Space the
	// sequence space it counts in. A follower row's lag is its owner row's
	// Seq minus this when both rows name the same Space.
	Seq   uint64 `json:"seq"`
	Space Space  `json:"space,omitzero"`
}

// NodeStatus is the GET /v1/status answer.
type NodeStatus struct {
	Node        string            `json:"node,omitempty"`
	Epoch       uint64            `json:"epoch"`
	Nodes       []Node            `json:"nodes,omitempty"`
	Overrides   map[string]string `json:"overrides,omitempty"`
	Communities []CommunityStatus `json:"communities"`
}

func (a *apiHandler) serveStatus(w http.ResponseWriter, r *http.Request) {
	resp := NodeStatus{Node: a.node, Communities: []CommunityStatus{}}
	if a.Router != nil {
		resp.Epoch = a.Router.Epoch()
		resp.Nodes = a.Router.Nodes()
		if ov := a.Router.Overrides(); len(ov) > 0 {
			resp.Overrides = ov
		}
	}
	for _, id := range a.Owner.List() {
		c, ok := a.Owner.Get(id)
		if !ok {
			continue
		}
		cs := CommunityStatus{ID: id, Kind: c.Kind(), Role: "owner", Seq: c.Seq(), Space: c.Space()}
		if c.Fenced() {
			cs.Role = "follower"
		}
		if a.Router != nil {
			cs.Placed = a.Router.Place(id)
		}
		resp.Communities = append(resp.Communities, cs)
	}
	writeJSON(w, http.StatusOK, resp)
}

// PromoteRequest is the POST /v1/promote body.
type PromoteRequest struct {
	Community string `json:"community"`
}

// PromoteResponse is the POST /v1/promote answer: the community now owned
// here, its journal sequence, and the epoch of the table that assigned it.
// Promote, placement-offer and handoff replies keep their fields in
// alphabetical key order: their bodies are pinned byte for byte
// (TestControlBodiesPinned).
type PromoteResponse struct {
	Community string `json:"community"`
	Epoch     uint64 `json:"epoch"`
	Node      string `json:"node"`
	Seq       uint64 `json:"seq"`
}

// servePromote takes ownership of a community this node replicates: it
// publishes an epoch-bumped table assigning the community here, whose
// fence sync takes the replica over (Owner.TakeOver, journaled), so writes
// land locally from the next request on. The break-glass
// failover path for when the automatic election cannot run; normal
// failovers promote without any operator call.
func (a *apiHandler) servePromote(w http.ResponseWriter, r *http.Request) {
	if a.Router == nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("this node is not in a cluster"))
		return
	}
	var req PromoteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	c, ok := a.Owner.Get(req.Community)
	if !ok {
		WriteError(w, http.StatusNotFound, Errf(CodeNotFound, "no community %q on this node", req.Community))
		return
	}
	p, err := a.promote(req.Community)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Community: req.Community, Epoch: p.Epoch, Node: a.node, Seq: c.Seq()})
}

// promote publishes the current table one epoch on with community
// assigned to this node and returns the installed table. The install's
// fence sync takes the community over before SetPlacement returns; a
// concurrent install that wins first forces a re-read and another try.
func (a *apiHandler) promote(community string) (Placement, error) {
	a.promoteMu.Lock()
	defer a.promoteMu.Unlock()
	for {
		p := a.Router.Placement()
		p.Epoch++
		p.Assign[community] = a.Router.Self()
		if installed, err := a.Router.SetPlacement(p); err != nil || installed {
			return p, err
		}
	}
}

// servePlacementGet answers with the installed placement table.
func (a *apiHandler) servePlacementGet(w http.ResponseWriter, r *http.Request) {
	if a.Router == nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("this node is not in a cluster"))
		return
	}
	writeJSON(w, http.StatusOK, a.Router.Placement())
}

// servePlacementSet offers a table to this node: installed iff it
// supersedes the current one (higher epoch; fingerprint breaks same-epoch
// ties), so republication and stale gossip are harmless. The response
// reports the decision and the epoch now in force.
func (a *apiHandler) servePlacementSet(w http.ResponseWriter, r *http.Request) {
	if a.Router == nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("this node is not in a cluster"))
		return
	}
	var p Placement
	if !decodeJSON(w, r, &p) {
		return
	}
	installed, err := a.Router.SetPlacement(p)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, OfferResponse{Epoch: a.Router.Epoch(), Installed: installed})
}

// OfferResponse is the POST /v1/placement answer: whether the offered table
// was installed, and the epoch now in force.
type OfferResponse struct {
	Epoch     uint64 `json:"epoch"`
	Installed bool   `json:"installed"`
}

// HandoffRequest is the POST /v1/handoff body: move community to the node
// table assigns it to, and install table cluster-wide as the new epoch.
type HandoffRequest struct {
	Community string    `json:"community"`
	Table     Placement `json:"table"`
}

// HandoffResponse is the POST /v1/handoff answer: the community, the node
// and epoch it moved to, the journal sequence of the cut, and how long its
// writes were paused.
type HandoffResponse struct {
	Community string `json:"community"`
	CutSeq    uint64 `json:"cut_seq"`
	Epoch     uint64 `json:"epoch"`
	Node      string `json:"node"`
	PauseUS   int64  `json:"pause_us"`
}

// serveHandoff runs one live handoff from this node (the community's
// current owner) via the wired Handoff hook and reports what it cost.
func (a *apiHandler) serveHandoff(w http.ResponseWriter, r *http.Request) {
	if a.Router == nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("this node is not in a cluster"))
		return
	}
	if a.Handoff == nil {
		WriteError(w, http.StatusNotImplemented, Errf(CodeUnavailable, "this node does not serve handoffs"))
		return
	}
	var req HandoffRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Community == "" {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("handoff request names no community"))
		return
	}
	cut, pause, err := a.Handoff(req.Community, req.Table)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, HandoffResponse{
		Community: req.Community,
		CutSeq:    cut,
		Epoch:     req.Table.Epoch,
		Node:      req.Table.Assign[req.Community],
		PauseUS:   pause.Microseconds(),
	})
}

// syncFences reconciles local ownership with the installed table, once
// when the handler is built and after every placement change. Communities
// this node holds unfenced but the table places elsewhere are fenced (fail
// closed: a node that lost a community must stop taking writes the moment
// it learns). Fenced replicas the table explicitly assigns to this node
// are taken over in the sequence space of the table's epoch and this node
// — explicit assignments are only ever published by handoffs, elections,
// and the promote endpoint, so ring-derived placement alone never lifts a
// fence. A takeover that cannot be journaled leaves the replica fenced,
// and the next table tries again. A copy in a space of the table's epoch
// that the table does not assign to the space's node was taken over under
// a table this one beat at the same epoch, a double self-promotion's
// loser: it is fenced and drops to seq 0 of the zero space, behind every
// copy, so any state of the winner's replaces it — an install record of
// the winner's included, which a takeover record then moves on — and no
// election ranks it above the winner's copies.
func syncFences(o *Owner, rt *Router) {
	self := rt.Self()
	if self == "" {
		return
	}
	p := rt.Placement()
	for _, id := range o.List() {
		c, ok := o.Get(id)
		if !ok {
			continue
		}
		c.mu.Lock()
		if c.space.Epoch == p.Epoch && c.space != (Space{}) && c.space.Node != p.Assign[id] {
			c.space, c.seq, c.fenced = Space{}, 0, true
		}
		c.mu.Unlock()
		if p.Assign[id] == self {
			if c.Fenced() {
				_ = o.TakeOver(id, Space{Epoch: p.Epoch, Node: self}, nil, false)
			}
		} else if !c.Fenced() && rt.Place(id) != self {
			o.Fence(id)
		}
	}
}

// binHandler serves /v1/bin/window and /v1/bin/next: once readBatch
// accepts the body, serve answers each frame, in order, into the staged
// response. Per-query failures arrive as Error frames in position, so a
// batch with one bad query still answers the rest.
func (a *apiHandler) binHandler(allowed wire.Kind, serve func(dst []byte, f wire.Frame) []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		batch, ok := readBatch(w, r, allowed)
		if !ok {
			return
		}
		s := getStage()
		eachFrame(batch, func(f wire.Frame) { s.b = serve(s.b, f) })
		s.send(w, http.StatusOK, "application/octet-stream")
	}
}

// readBatch reads the body of a /v1/bin request and checks its framing, the
// one check of all three binary endpoints: one to MaxBatch well-formed wire
// frames, all of the allowed kind. A violation fails the whole request with
// a JSON 400 before any frame is served: the client spoke the protocol
// wrong and no per-frame correspondence exists.
func readBatch(w http.ResponseWriter, r *http.Request, allowed wire.Kind) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxFrame))
	if err != nil {
		err = fmt.Errorf("read binary request body: %w", err)
	} else if len(body) == 0 {
		err = errors.New("empty batch: the request body carried no frames")
	}
	for rest, frames := body, 0; err == nil && len(rest) > 0; frames++ {
		var f wire.Frame
		f, rest, err = wire.Split(rest)
		switch {
		case err != nil: // malformed framing
		case f.Kind != allowed:
			err = fmt.Errorf("%s frame on the %s endpoint", f.Kind, allowed)
		case frames == MaxBatch:
			err = fmt.Errorf("batch exceeds %d frames", MaxBatch)
		}
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return body, true
}

// eachFrame calls fn on every frame of a batch readBatch accepted, in order.
func eachFrame(batch []byte, fn func(wire.Frame)) {
	for len(batch) > 0 {
		var f wire.Frame
		f, batch, _ = wire.Split(batch)
		fn(f)
	}
}

// binNotFound answers a binary query for a community absent locally: 404 —
// or, with a router placing it elsewhere, an in-band not_owner Error so the
// client re-routes the frame itself (binary frames are never forwarded).
func (a *apiHandler) binNotFound(dst []byte, id string) []byte {
	if a.Router != nil {
		if node := a.Router.Place(id); node != a.node {
			return appendWireError(dst, http.StatusMisdirectedRequest, a.notOwner(id, node))
		}
	}
	return appendWireError(dst, http.StatusNotFound, Errf(CodeNotFound, "no community %q", id))
}

// serveBinChurn serves POST /v1/bin/churn: the request body is a batch of
// churn-request frames and the response the matching churn-response (or
// in-position Error) frames. Consecutive-or-not requests for the same
// community are grouped and applied as one amortized ChurnBatch flush —
// per-community order is the arrival order, which is the only order the
// protocol promises (edits to distinct communities are independent). Each
// frame is validated up front (unknown community → 404, misplaced community
// → 421 not_owner, out-of-range edit → 400, all as in-position Error
// frames), so a bad edit fails alone and the grouped batches it is excluded
// from stay all-or-nothing only against journal failures (→ 500 on every
// edit of the failed flush). Framing violations fail the whole request with
// a JSON 400, exactly like the other binary endpoints.
func (a *apiHandler) serveBinChurn(w http.ResponseWriter, r *http.Request) {
	batch, ok := readBatch(w, r, wire.KindChurnReq)
	if !ok {
		return
	}
	type group struct {
		c     *Community
		edits []core.Edit
		pos   []int // slot index of each edit, for positional responses
	}
	var slots []binChurnSlot
	var order []*group
	groups := make(map[*Community]*group)
	fail := func(status int, err error) { slots = append(slots, binChurnSlot{status: status, err: err}) }
	eachFrame(batch, func(f wire.Frame) {
		op, id, u, v, err := f.ChurnReq()
		if err != nil {
			fail(http.StatusBadRequest, err)
			return
		}
		if a.Router != nil {
			if node := a.Router.Place(id); node != a.node {
				fail(http.StatusMisdirectedRequest, a.notOwner(id, node))
				return
			}
		}
		c, ok := a.Owner.Get(id)
		if !ok {
			fail(http.StatusNotFound, Errf(CodeNotFound, "no community %q", id))
			return
		}
		// Validate now, against the current family count: families only
		// grow, so the edit stays valid at flush time and one bad edit
		// can never sink its groupmates' batch.
		if err := validEdge(c.Families(), u, v); err != nil {
			fail(http.StatusBadRequest, err)
			return
		}
		g := groups[c]
		if g == nil {
			g = &group{c: c}
			groups[c] = g
			order = append(order, g)
		}
		g.edits = append(g.edits, core.Edit{Op: core.EditOp(op), U: u, V: v})
		g.pos = append(g.pos, len(slots))
		slots = append(slots, binChurnSlot{})
	})
	// One flush per community touched, in first-touch order. Validation
	// above means a flush can only fail on the journal or the fence — an
	// error every edit of the flush shares.
	for _, g := range order {
		res := make([]core.EditResult, len(g.edits))
		if _, err := g.c.ChurnBatch(g.edits, res); err != nil {
			for _, p := range g.pos {
				slots[p] = binChurnSlot{status: http.StatusInternalServerError, err: err}
			}
			continue
		}
		for i, p := range g.pos {
			slots[p] = binChurnSlot{res: res[i]}
		}
	}
	s := getStage()
	for _, sl := range slots {
		if sl.err == nil {
			s.b = wire.AppendChurnResp(s.b, sl.res.Applied, sl.res.Recolored)
		} else {
			s.b = appendWireError(s.b, sl.status, sl.err)
		}
	}
	s.send(w, http.StatusOK, "application/octet-stream")
}

// binChurnSlot is one positional outcome of a binary churn batch: a per-edit
// result, or, when err is set, the Error frame that will stand in its place.
type binChurnSlot struct {
	res    core.EditResult
	status int
	err    error
}

// appendWireError appends a binary Error frame carrying the same {code,
// message} envelope WriteError renders as JSON.
func appendWireError(dst []byte, status int, err error) []byte {
	status, ae := envelope(status, err)
	return wire.AppendError(dst, status, ae.Code.Num(), ae.Message)
}

// serveBinWindow answers one window-request frame, streaming the packed
// bitmap rows straight from the community's frozen schedule into dst: the
// response header, then one ⌈n/64⌉-word row per holiday — no []int row and
// no JSON on this path. Errors mirror the JSON endpoint's statuses (404
// unknown community, 400 invalid query, 421 misplaced); a window whose
// frame would exceed wire.MaxFrame is refused with a 400 naming the
// largest span that fits, before any row is emitted.
func (a *apiHandler) serveBinWindow(dst []byte, f wire.Frame) []byte {
	id, from, to, err := f.WindowReq()
	if err != nil {
		return appendWireError(dst, http.StatusBadRequest, err)
	}
	c, ok := a.Owner.Get(id)
	if !ok {
		return a.binNotFound(dst, id)
	}
	sched, err := c.windowSchedule(from, to)
	if err != nil {
		return appendWireError(dst, http.StatusBadRequest, err)
	}
	n, rows := sched.Nodes(), int(to-from+1)
	if fit := wire.WindowRespRows(n); rows > fit {
		return appendWireError(dst, http.StatusBadRequest, fmt.Errorf(
			"window of %d holidays over %d families exceeds the %d-byte frame limit; at most %d holidays fit in one frame",
			rows, n, wire.MaxFrame, fit))
	}
	dst = wire.AppendWindowRespHeader(dst, n, from, rows)
	sched.WindowBits(from, to, func(t int64, row graph.Bitset) { dst = row.AppendBytes(dst) })
	return dst
}

// serveBinNext answers one next-request frame; statuses mirror the JSON
// endpoint (404 for unknown community or family).
func (a *apiHandler) serveBinNext(dst []byte, f wire.Frame) []byte {
	id, v, from, err := f.NextReq()
	if err != nil {
		return appendWireError(dst, http.StatusBadRequest, err)
	}
	c, ok := a.Owner.Get(id)
	if !ok {
		return a.binNotFound(dst, id)
	}
	next, err := c.NextHappy(v, from)
	if err != nil {
		return appendWireError(dst, http.StatusNotFound, err)
	}
	return wire.AppendNextResp(dst, next)
}

// createRequest is the POST /v1/communities body. Kind selects the
// scheduling problem ("" or "classic" = gathering, "poly" = polyamorous
// edge scheduling); demands and default_demand apply to poly only.
type createRequest struct {
	ID            string   `json:"id"`
	Families      int      `json:"families"`
	Edges         [][2]int `json:"edges"`
	Code          string   `json:"code"`
	Kind          string   `json:"kind"`
	Demands       []int64  `json:"demands"`
	DefaultDemand int64    `json:"default_demand"`
}

// edgeRequest is the POST /v1/communities/{id}/edges body. Demand is the
// poly per-edge demand (0 = community default); classic ignores it.
type edgeRequest struct {
	U      int   `json:"u"`
	V      int   `json:"v"`
	Demand int64 `json:"demand"`
}

// churnOpRequest is one element of the POST /v1/communities/{id}/churn
// array. Demand applies to poly marries only (0 = community default).
type churnOpRequest struct {
	Op     string `json:"op"` // "marry" or "divorce"
	U      int    `json:"u"`
	V      int    `json:"v"`
	Demand int64  `json:"demand"`
}

// churnOpResult is one element of the churn response's results array.
type churnOpResult struct {
	Applied   bool `json:"applied"`
	Recolored bool `json:"recolored"`
}

// churnResponse is the POST /v1/communities/{id}/churn answer: per-edit
// outcomes plus batch totals. Applied counts edits that changed the edge
// set; Recolorings counts §6 recoloring events the batch triggered. Seq is
// the community's journal sequence after the batch — the read-your-writes
// token a client hands to followers.
type churnResponse struct {
	Community   string          `json:"community"`
	Seq         uint64          `json:"seq"`
	Applied     int             `json:"applied"`
	Recolorings int             `json:"recolorings"`
	Results     []churnOpResult `json:"results"`
}

// nextResponse is the GET next answer.
type nextResponse struct {
	Community string `json:"community"`
	Family    int    `json:"family"`
	From      int64  `json:"from"`
	// Next is the first holiday ≥ from at which the family is happy.
	Next int64 `json:"next"`
}

// queryInt64 parses an optional integer query parameter.
func queryInt64(r *http.Request, key string, def int64) (int64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query param %q must be an integer, got %q", key, s)
	}
	return v, nil
}

// staged is a response body under construction: handlers append to b, and
// writeJSON's encoder writes into it. Every body the handler builds, JSON or
// binary, is staged in one of these and goes out in one Write with a
// Content-Length; stagePool recycles them, so steady-state serving
// allocates no response buffers.
type staged struct{ b []byte }

// Write appends p, so a json.Encoder can encode straight into the stage.
func (s *staged) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

var stagePool = sync.Pool{New: func() any { return new(staged) }}

// stageMax caps the buffers stagePool retains: a rare giant response (a
// MaxWindow query over a dense community, a maximal batch) must not pin its
// buffer forever.
const stageMax = 1 << 20

// getStage returns an empty pooled stage.
func getStage() *staged {
	s := stagePool.Get().(*staged)
	s.b = s.b[:0]
	return s
}

// send writes the staged body with its status and content type, then
// returns the stage to the pool unless its buffer outgrew stageMax.
func (s *staged) send(w http.ResponseWriter, status int, contentType string) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(s.b)))
	w.WriteHeader(status)
	_, _ = w.Write(s.b)
	if cap(s.b) <= stageMax {
		stagePool.Put(s)
	}
}

// writeJSON renders v with the given status through a pooled stage.
func writeJSON(w http.ResponseWriter, status int, v any) {
	s := getStage()
	if err := json.NewEncoder(s).Encode(v); err != nil {
		// Encoding failures are programming errors (all payloads are plain
		// structs); degrade to an opaque 500 rather than a torn body, and
		// leave the stage to the garbage collector.
		http.Error(w, `{"code":"internal","message":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	s.send(w, status, "application/json")
}

// WriteError renders the {code, message} envelope, the one error body of
// every endpoint, internal/cluster's stream route included. Enveloped
// errors (the *Error type) carry their own code and status; anything else
// is classified by the status the call site chose.
func WriteError(w http.ResponseWriter, status int, err error) {
	status, ae := envelope(status, err)
	writeJSON(w, status, ae)
}

// decodeJSON decodes a JSON request body into v, reading at most
// wire.MaxFrame bytes of it. A malformed or over-long body answers 400
// and reports false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxFrame)).Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return false
	}
	return true
}
