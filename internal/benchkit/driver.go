package benchkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/wire"
)

// Protocol labels for HTTPDriver.Proto and Snapshot.Proto.
const (
	// ProtoJSON drives the JSON endpoints (the default; snapshots omit it
	// for compatibility with pre-protocol baselines).
	ProtoJSON = "json"
	// ProtoBinary drives window and next queries through the /v1/bin
	// endpoints in the internal/wire packed-bitmap format. Batched binary
	// runs also send churn through /v1/bin/churn (where the server groups
	// each community's edits into one amortized flush); unbatched churn
	// stays on the JSON API.
	ProtoBinary = "binary"
)

// Driver executes generated ops against a target. Every driver implements
// every method; implementations must be safe for concurrent Do and DoBatch
// calls, since the runner issues them from every worker.
type Driver interface {
	// Target labels the snapshot with what the driver drives.
	Target() Target
	// Setup creates the scenario's communities on the target and returns
	// their family counts, which seed the op generators.
	Setup(sc *Scenario, seed uint64) (sizes []int, err error)
	// Do executes one op, returning an error only for genuine failures
	// (benign outcomes like divorcing a couple that never married count as
	// served traffic).
	Do(op Op) error
	// DoBatch executes len(ops) ops as one call and fills errs (len(errs)
	// == len(ops)) with per-op outcomes. The returned error is a failure of
	// the whole batch.
	DoBatch(ops []Op, errs []error) error
	// Stats reads the scenario communities' counters in one pass.
	Stats() (Stats, error)
	// Close releases the scenario's communities.
	Close() error
}

// Target names what a driver drives; the snapshot records it.
type Target struct {
	// Driver is "inproc", "http" or "cluster".
	Driver string
	// Proto is empty for JSON and in-process runs, keeping their snapshots
	// comparable to pre-protocol baselines, and ProtoBinary for binary runs.
	Proto string
	// Nodes is the member count of a cluster run; 0 for one target.
	Nodes int
}

// protoTag is the Target.Proto of a driver whose Proto field is proto.
func protoTag(proto string) string {
	if proto == ProtoBinary {
		return ProtoBinary
	}
	return ""
}

// Stats are the scenario communities' counters at one moment: the
// frozen-schedule cache counters, the repair events (§6 recolorings for
// classic, relayerings for poly), and the live edges and worst max-gap ratio
// of the poly communities (Edges is 0 when the scenario has none).
type Stats struct {
	CacheHits, CacheMisses int64
	Recolorings            int64
	Edges                  int64
	MaxGapRatio            float64
}

// add folds one community's counters into s. Repairs and poly totals count
// only for the community's owner: its replicas replay the same edits.
func (s *Stats) add(st service.Stats, owner bool) {
	s.CacheHits += st.CacheHits
	s.CacheMisses += st.CacheMisses
	if !owner {
		return
	}
	s.Recolorings += st.Recolorings
	if st.Poly != nil {
		s.Edges += int64(st.Poly.Edges)
		s.MaxGapRatio = max(s.MaxGapRatio, st.Poly.MaxGapRatio)
	}
}

// InProcDriver drives a service.Owner in the same process — the
// lowest-overhead view of the serving path, and the one whose allocation
// counts are meaningful. It drives the Owner it is given: a run is durable
// when the caller attached a journal to that Owner.
type InProcDriver struct {
	reg     *service.Owner
	comms   []*service.Community
	rows    sync.Pool // *[]service.HolidayRow window buffers, reused across ops
	batches sync.Pool // *churnBatches grouping state, reused across DoBatch calls
}

// NewInProcDriver wraps a registry (usually a fresh one).
func NewInProcDriver(reg *service.Owner) *InProcDriver {
	return &InProcDriver{
		reg:     reg,
		rows:    sync.Pool{New: func() any { return new([]service.HolidayRow) }},
		batches: sync.Pool{New: func() any { return new(churnBatches) }},
	}
}

// Target implements Driver.
func (d *InProcDriver) Target() Target { return Target{Driver: "inproc"} }

// Setup implements Driver.
func (d *InProcDriver) Setup(sc *Scenario, seed uint64) ([]int, error) {
	sizes := make([]int, len(sc.Communities))
	for i, cs := range sc.Communities {
		g, err := graph.ParseSpec(cs.Spec, seed+uint64(i))
		if err != nil {
			d.Close() // the runner only closes after a successful Setup
			return nil, fmt.Errorf("benchkit: community %q: %w", cs.ID, err)
		}
		var c *service.Community
		if cs.Kind == service.KindPoly {
			c, err = d.reg.CreateSpec(service.CreateSpec{
				ID: cs.ID, Families: g.N(), Edges: g.EdgePairs(),
				Kind: service.KindPoly, Code: cs.Code, DefaultDemand: cs.DefaultDemand,
			})
		} else {
			c, err = d.reg.CreateFromGraph(cs.ID, g, cs.Code)
		}
		if err != nil {
			d.Close()
			return nil, err
		}
		d.comms = append(d.comms, c)
		sizes[i] = g.N()
	}
	return sizes, nil
}

// Do implements Driver.
func (d *InProcDriver) Do(op Op) error {
	c := d.comms[op.Community]
	switch op.Kind {
	case OpWindow:
		buf := d.rows.Get().(*[]service.HolidayRow)
		rows, err := c.AppendWindow((*buf)[:0], op.From, op.To)
		if err == nil && int64(len(rows)) != op.To-op.From+1 {
			err = fmt.Errorf("benchkit: window [%d,%d] returned %d rows", op.From, op.To, len(rows))
		}
		*buf = rows
		d.rows.Put(buf)
		return err
	case OpNext:
		_, err := c.NextHappy(op.U, op.From)
		return err
	case OpMarry:
		_, err := c.Marry(op.U, op.V)
		return err
	case OpDivorce:
		_, _, err := c.Divorce(op.U, op.V)
		return err
	default:
		return fmt.Errorf("benchkit: unknown op kind %d", op.Kind)
	}
}

// DoBatch implements Driver: the batch's churn ops are grouped per
// community and applied through Community.ChurnBatch — one write-lock
// acquisition, one journal group-commit, at most one cache invalidation per
// community per batch — while read ops are served individually (reads have
// no batched form in-process; the lock they share is the read lock). This is
// the amortized write path the -batch flag of cmd/holidayload drives.
func (d *InProcDriver) DoBatch(ops []Op, errs []error) error {
	if len(errs) != len(ops) {
		return fmt.Errorf("benchkit: DoBatch needs len(errs) == len(ops), got %d and %d", len(errs), len(ops))
	}
	b := d.batches.Get().(*churnBatches)
	defer d.batches.Put(b)
	b.reset(len(d.comms))
	for i, op := range ops {
		switch op.Kind {
		case OpMarry:
			b.add(op.Community, i, core.Edit{Op: core.EditInsert, U: op.U, V: op.V})
		case OpDivorce:
			b.add(op.Community, i, core.Edit{Op: core.EditDelete, U: op.U, V: op.V})
		default:
			errs[i] = d.Do(op)
		}
	}
	for _, ci := range b.order {
		g := &b.perComm[ci]
		if cap(b.res) < len(g.edits) {
			b.res = make([]core.EditResult, len(g.edits))
		}
		if _, err := d.comms[ci].ChurnBatch(g.edits, b.res[:len(g.edits)]); err != nil {
			for _, i := range g.idx {
				errs[i] = err
			}
		}
	}
	return nil
}

// churnBatches is the reusable per-call grouping state of InProcDriver
// batches, pooled so steady-state batched driving does not re-allocate the
// group slices every request.
type churnBatches struct {
	perComm []churnGroup
	order   []int
	res     []core.EditResult
}

// churnGroup is one community's slice of a batch.
type churnGroup struct {
	edits []core.Edit
	idx   []int
}

// reset prepares the state for a batch over nComms communities: the groups
// the previous batch touched are cleared (every populated group is in
// order), then the slice is sized for the new community count.
func (b *churnBatches) reset(nComms int) {
	for _, ci := range b.order {
		b.perComm[ci].edits = b.perComm[ci].edits[:0]
		b.perComm[ci].idx = b.perComm[ci].idx[:0]
	}
	b.order = b.order[:0]
	if cap(b.perComm) < nComms {
		b.perComm = make([]churnGroup, nComms)
	}
	b.perComm = b.perComm[:nComms]
}

// add appends op i's edit to community ci's group.
func (b *churnBatches) add(ci, i int, e core.Edit) {
	g := &b.perComm[ci]
	if len(g.idx) == 0 {
		b.order = append(b.order, ci)
	}
	g.edits = append(g.edits, e)
	g.idx = append(g.idx, i)
}

// Stats implements Driver.
func (d *InProcDriver) Stats() (Stats, error) {
	var s Stats
	for _, c := range d.comms {
		s.add(c.Stats(), true)
	}
	return s, nil
}

// Close implements Driver: the scenario's communities are unregistered so a
// registry can be reused across runs.
func (d *InProcDriver) Close() error {
	var firstErr error
	for _, c := range d.comms {
		if _, err := d.reg.Delete(c.ID()); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.comms = nil
	return firstErr
}

// HTTPDriver drives a live holidayd over its HTTP API, measuring the full
// stack: routing, handler, response encoding, and the network path to the
// target. Allocation counts in its snapshots include client-side cost.
//
// With Proto set to ProtoBinary, window and next queries go through the
// /v1/bin endpoints in the internal/wire format — single-frame per Do, or
// many frames per request via DoBatch — while churn ops stay on the JSON
// API. Responses are framing-checked and error frames surface as op errors,
// but rows are not decoded: decoding on the load generator would dominate
// the measurement, same as the JSON path's drain-don't-decode policy.
type HTTPDriver struct {
	base   string // no trailing slash
	client *http.Client
	ctl    *service.Client // control-plane and stats reads, over client
	ids    []string

	// Proto selects the wire protocol for window/next queries: ProtoJSON
	// (or empty) for the JSON endpoints, ProtoBinary for /v1/bin. Set it
	// before the run starts; it must not change mid-run.
	Proto string

	// bufs pools the per-call encode/decode state of the binary path.
	bufs sync.Pool
}

// binBufs is the reusable encode/decode state of one binary request.
type binBufs struct {
	req  []byte
	resp bytes.Buffer
	// win, next, and churn index into a DoBatch ops slice, preserving op
	// order within each endpoint's batch.
	win, next, churn []int
}

// NewHTTPDriver targets a base URL such as "http://127.0.0.1:8080". The
// connection pool is sized for workers concurrent streams.
func NewHTTPDriver(base string, workers int) *HTTPDriver {
	if workers < 1 {
		workers = 1
	}
	tr := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
		IdleConnTimeout:     30 * time.Second,
	}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return &HTTPDriver{
		base:   trimTrailingSlash(base),
		client: client,
		ctl:    service.NewClient(client),
		bufs:   sync.Pool{New: func() any { return new(binBufs) }},
	}
}

// trimTrailingSlash normalizes the base URL.
func trimTrailingSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Target implements Driver.
func (d *HTTPDriver) Target() Target { return Target{Driver: "http", Proto: protoTag(d.Proto)} }

// Setup implements Driver: each community is deleted if present (leftovers
// of an aborted run) and recreated from its spec's edge list.
func (d *HTTPDriver) Setup(sc *Scenario, seed uint64) ([]int, error) {
	sizes := make([]int, len(sc.Communities))
	for i, cs := range sc.Communities {
		g, err := graph.ParseSpec(cs.Spec, seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("benchkit: community %q: %w", cs.ID, err)
		}
		req, err := http.NewRequest(http.MethodDelete, d.base+"/v1/communities/"+url.PathEscape(cs.ID), nil)
		if err != nil {
			return nil, err
		}
		if resp, err := d.client.Do(req); err == nil {
			drain(resp)
		}
		create := map[string]any{
			"id": cs.ID, "families": g.N(), "edges": g.EdgePairs(),
		}
		if cs.Kind != "" {
			create["kind"] = cs.Kind
		}
		if cs.Code != "" {
			create["code"] = cs.Code
		}
		if cs.DefaultDemand != 0 {
			create["default_demand"] = cs.DefaultDemand
		}
		body, err := json.Marshal(create)
		if err != nil {
			return nil, err
		}
		resp, err := d.client.Post(d.base+"/v1/communities", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("benchkit: create %q: %w", cs.ID, err)
		}
		if err := drainExpect(resp, http.StatusCreated); err != nil {
			return nil, fmt.Errorf("benchkit: create %q: %w", cs.ID, err)
		}
		d.ids = append(d.ids, cs.ID)
		sizes[i] = g.N()
	}
	return sizes, nil
}

// Do implements Driver. Responses are drained (a requirement for connection
// reuse) and status-checked, not decoded — decoding on the load generator
// would dominate the measurement.
func (d *HTTPDriver) Do(op Op) error {
	if d.Proto == ProtoBinary && (op.Kind == OpWindow || op.Kind == OpNext) {
		return d.doBin(op)
	}
	id := url.PathEscape(d.ids[op.Community])
	switch op.Kind {
	case OpWindow:
		resp, err := d.client.Get(d.base + "/v1/communities/" + id + "/window?from=" +
			strconv.FormatInt(op.From, 10) + "&to=" + strconv.FormatInt(op.To, 10))
		if err != nil {
			return err
		}
		return drainExpect(resp, http.StatusOK)
	case OpNext:
		resp, err := d.client.Get(d.base + "/v1/communities/" + id + "/families/" +
			strconv.Itoa(op.U) + "/next?from=" + strconv.FormatInt(op.From, 10))
		if err != nil {
			return err
		}
		return drainExpect(resp, http.StatusOK)
	case OpMarry:
		body, _ := json.Marshal(map[string]int{"u": op.U, "v": op.V})
		resp, err := d.client.Post(d.base+"/v1/communities/"+id+"/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		return drainExpect(resp, http.StatusOK)
	case OpDivorce:
		req, err := http.NewRequest(http.MethodDelete, d.base+"/v1/communities/"+id+"/edges?u="+
			strconv.Itoa(op.U)+"&v="+strconv.Itoa(op.V), nil)
		if err != nil {
			return err
		}
		resp, err := d.client.Do(req)
		if err != nil {
			return err
		}
		return drainExpect(resp, http.StatusOK)
	default:
		return fmt.Errorf("benchkit: unknown op kind %d", op.Kind)
	}
}

// doBin serves one window or next query over the binary endpoint.
func (d *HTTPDriver) doBin(op Op) error {
	b := d.bufs.Get().(*binBufs)
	defer d.bufs.Put(b)
	b.req = d.appendBinReq(b.req[:0], op)
	body, err := d.postBin(binPath(op.Kind), b)
	if err != nil {
		return err
	}
	f, rest, err := wire.Split(body)
	if err != nil {
		return fmt.Errorf("benchkit: binary response framing: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("benchkit: %d stray bytes after a single-frame response", len(rest))
	}
	return frameErr(f)
}

// DoBatch implements Driver for binary runs: window, next, and churn frames
// each travel as one batched request to their endpoint (responses are
// positional, so per-op failures land in errs). The churn endpoint
// additionally groups each community's edits server-side into one amortized
// ChurnBatch flush. The JSON protocol has no batched form, so a JSON driver
// refuses every batch.
func (d *HTTPDriver) DoBatch(ops []Op, errs []error) error {
	if d.Proto != ProtoBinary {
		return fmt.Errorf("benchkit: batched requests need the binary protocol (set Proto = %q)", ProtoBinary)
	}
	if len(errs) != len(ops) {
		return fmt.Errorf("benchkit: DoBatch needs len(errs) == len(ops), got %d and %d", len(errs), len(ops))
	}
	b := d.bufs.Get().(*binBufs)
	defer d.bufs.Put(b)
	b.win, b.next, b.churn = b.win[:0], b.next[:0], b.churn[:0]
	for i, op := range ops {
		switch op.Kind {
		case OpWindow:
			b.win = append(b.win, i)
		case OpNext:
			b.next = append(b.next, i)
		case OpMarry, OpDivorce:
			b.churn = append(b.churn, i)
		default:
			errs[i] = d.Do(op)
		}
	}
	if err := d.doBinBatch(ops, b.win, errs, b); err != nil {
		return err
	}
	if err := d.doBinBatch(ops, b.next, errs, b); err != nil {
		return err
	}
	return d.doBinBatch(ops, b.churn, errs, b)
}

// doBinBatch posts the ops selected by idx as one frame batch and maps the
// positional responses back into errs.
func (d *HTTPDriver) doBinBatch(ops []Op, idx []int, errs []error, b *binBufs) error {
	if len(idx) == 0 {
		return nil
	}
	b.req = b.req[:0]
	for _, i := range idx {
		b.req = d.appendBinReq(b.req, ops[i])
	}
	body, err := d.postBin(binPath(ops[idx[0]].Kind), b)
	if err != nil {
		return err
	}
	for _, i := range idx {
		var f wire.Frame
		f, body, err = wire.Split(body)
		if err != nil {
			return fmt.Errorf("benchkit: binary batch framing: %w", err)
		}
		errs[i] = frameErr(f)
	}
	if len(body) != 0 {
		return fmt.Errorf("benchkit: %d stray bytes after a %d-frame batch", len(body), len(idx))
	}
	return nil
}

// appendBinReq encodes one op as a wire request frame.
func (d *HTTPDriver) appendBinReq(dst []byte, op Op) []byte {
	id := d.ids[op.Community]
	switch op.Kind {
	case OpWindow:
		return wire.AppendWindowReq(dst, id, op.From, op.To)
	case OpMarry:
		return wire.AppendChurnReq(dst, wire.ChurnInsert, id, op.U, op.V)
	case OpDivorce:
		return wire.AppendChurnReq(dst, wire.ChurnDelete, id, op.U, op.V)
	default:
		return wire.AppendNextReq(dst, id, op.U, op.From)
	}
}

// binPath maps an op kind to its binary endpoint.
func binPath(k OpKind) string {
	switch k {
	case OpWindow:
		return "/v1/bin/window"
	case OpMarry, OpDivorce:
		return "/v1/bin/churn"
	default:
		return "/v1/bin/next"
	}
}

// postBin posts b.req to a binary endpoint and returns the response bytes,
// staged in b.resp so steady-state binary driving reuses both buffers.
func (d *HTTPDriver) postBin(path string, b *binBufs) ([]byte, error) {
	resp, err := d.client.Post(d.base+path, "application/octet-stream", bytes.NewReader(b.req))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		// A non-200 means the whole batch was refused (protocol violation);
		// per-query failures arrive as in-band error frames instead.
		return nil, drainExpect(resp, http.StatusOK)
	}
	b.resp.Reset()
	_, err = b.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	return b.resp.Bytes(), nil
}

// frameErr converts an in-band error frame to an op error wrapping its
// *service.Error; any other frame kind counts as served traffic (rows are
// deliberately not decoded).
func frameErr(f wire.Frame) error {
	if f.Kind != wire.KindError {
		return nil
	}
	status, code, msg, err := f.ErrorResp()
	if err != nil {
		return fmt.Errorf("benchkit: malformed error frame: %w", err)
	}
	e := &service.Error{Code: service.CodeFromNum(code), Message: msg}
	return fmt.Errorf("benchkit: binary query failed: status %d (%s): %w", status, e.Code, e)
}

// Stats implements Driver via the per-community stats endpoint.
func (d *HTTPDriver) Stats() (Stats, error) {
	var s Stats
	for _, id := range d.ids {
		st, err := d.statsOf(id)
		if err != nil {
			return Stats{}, err
		}
		s.add(st, true)
	}
	return s, nil
}

// Close implements Driver: the scenario's communities are deleted from the
// target so repeated runs start clean.
func (d *HTTPDriver) Close() error {
	var firstErr error
	for _, id := range d.ids {
		req, err := http.NewRequest(http.MethodDelete, d.base+"/v1/communities/"+url.PathEscape(id), nil)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		resp, err := d.client.Do(req)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		drain(resp)
	}
	d.ids = nil
	d.client.CloseIdleConnections()
	return firstErr
}

// addLocalStats adds the counters of the scenario communities this node
// holds, owner or fenced replica, as /v1/status names them. /v1/status never
// forwards, so a cluster-wide sum over every member counts no copy twice,
// where a stats GET for an absent community would be forwarded to its
// owner.
func (d *HTTPDriver) addLocalStats(s *Stats) error {
	status, err := d.ctl.Status(context.TODO(), d.base)
	if err != nil {
		return fmt.Errorf("benchkit: status: %w", err)
	}
	for _, c := range status.Communities {
		if !slices.Contains(d.ids, c.ID) {
			continue
		}
		st, err := d.statsOf(c.ID)
		if err != nil {
			return err
		}
		s.add(st, c.Role == "owner")
	}
	return nil
}

// statsOf fetches one community's stats. An error payload would decode into
// all-zero Stats, so it fails the read instead.
func (d *HTTPDriver) statsOf(id string) (service.Stats, error) {
	st, err := d.ctl.Stats(context.TODO(), d.base, id)
	if err != nil {
		return service.Stats{}, fmt.Errorf("benchkit: stats for %q: %w", id, err)
	}
	return st, nil
}

// communitySeq reads the applied journal sequence of one community on this
// node, or 0 if the node doesn't hold it yet.
func (d *HTTPDriver) communitySeq(id string) (uint64, error) {
	status, err := d.ctl.Status(context.TODO(), d.base)
	if err != nil {
		return 0, fmt.Errorf("benchkit: status: %w", err)
	}
	for _, c := range status.Communities {
		if c.ID == id {
			return c.Seq, nil
		}
	}
	return 0, nil
}

// fetchWindow returns one community's JSON window response body verbatim,
// for byte-identity checks across replicas.
func (d *HTTPDriver) fetchWindow(id string, from, to int64) ([]byte, error) {
	resp, err := d.client.Get(d.base + "/v1/communities/" + url.PathEscape(id) + "/window?from=" +
		strconv.FormatInt(from, 10) + "&to=" + strconv.FormatInt(to, 10))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("benchkit: window for %q: status %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// drain consumes and closes a response body so the connection can be reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// drainExpect drains the body and errors unless the status matches. The
// error wraps the node's envelope as a *service.Error, decoded only on this
// failure path, as service.Client does.
func drainExpect(resp *http.Response, want int) error {
	var err error
	if resp.StatusCode != want {
		err = fmt.Errorf("benchkit: %s %s: status %d (want %d): %w",
			resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want, service.ResponseError(resp))
	}
	drain(resp)
	return err
}
