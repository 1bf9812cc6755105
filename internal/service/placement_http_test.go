package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// bootNode builds one cluster-aware handler over an httptest server and
// returns it with its router and owner.
func bootNode(t *testing.T, self string, opts HandlerOpts) (*httptest.Server, *Router, *Owner) {
	t.Helper()
	if opts.Owner == nil {
		opts.Owner = New(Opts{})
	}
	if opts.Router == nil {
		rt, err := NewRouter(RouterOpts{Self: self, Nodes: testNodes("a", "b")})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		opts.Router = rt
	}
	srv := httptest.NewServer(NewHandler(opts))
	t.Cleanup(srv.Close)
	return srv, opts.Router, opts.Owner
}

// TestPlacementEndpoints: GET serves the installed table; POST installs a
// superseding one, refuses stale and malformed ones, and both report the
// epoch in force.
func TestPlacementEndpoints(t *testing.T) {
	srv, rt, _ := bootNode(t, "a", HandlerOpts{})

	resp, err := http.Get(srv.URL + "/v1/placement")
	if err != nil {
		t.Fatalf("get placement: %v", err)
	}
	var p Placement
	err = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if err != nil || p.Epoch != 0 || len(p.Nodes) != 2 {
		t.Fatalf("placement = %+v, %v", p, err)
	}

	post := func(body string) (installed bool, epoch uint64, status int) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/placement", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post placement: %v", err)
		}
		defer resp.Body.Close()
		var out struct {
			Installed bool   `json:"installed"`
			Epoch     uint64 `json:"epoch"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return out.Installed, out.Epoch, resp.StatusCode
	}

	next := Placement{Epoch: 3, Nodes: testNodes("a", "b", "c"), Assign: map[string]string{"x": "c"}}
	body, _ := json.Marshal(next)
	installed, epoch, status := post(string(body))
	if status != http.StatusOK || !installed || epoch != 3 {
		t.Fatalf("superseding table: installed=%v epoch=%d status=%d", installed, epoch, status)
	}
	if rt.Epoch() != 3 || rt.Place("x") != "c" {
		t.Fatalf("table not in force: epoch %d, Place(x)=%s", rt.Epoch(), rt.Place("x"))
	}
	// Stale republication: refused quietly, current epoch reported.
	stale, _ := json.Marshal(Placement{Epoch: 1, Nodes: testNodes("a")})
	installed, epoch, status = post(string(stale))
	if status != http.StatusOK || installed || epoch != 3 {
		t.Fatalf("stale table: installed=%v epoch=%d status=%d", installed, epoch, status)
	}
	// Structurally invalid: 400.
	if _, _, status = post(`{"epoch":9,"nodes":[]}`); status != http.StatusBadRequest {
		t.Fatalf("empty-membership table: status %d, want 400", status)
	}
	if _, _, status = post(`{nope`); status != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", status)
	}
}

// TestHandoffEndpoint: 501 without the daemon hook, 400 on bad requests,
// and the hook's result echoed on success.
func TestHandoffEndpoint(t *testing.T) {
	bare, _, _ := bootNode(t, "a", HandlerOpts{})
	table := Placement{Epoch: 2, Nodes: testNodes("a", "b"), Assign: map[string]string{"x": "b"}}
	body, _ := json.Marshal(map[string]any{"community": "x", "table": table})
	resp, err := http.Post(bare.URL+"/v1/handoff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post handoff: %v", err)
	}
	resp.Body.Close()
	// The unavailable envelope code maps to 503 regardless of the handler's
	// nominal status — clients switch on the code, not the number.
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("handoff without a hook: status %d, want 503", resp.StatusCode)
	}

	srv, _, _ := bootNode(t, "a", HandlerOpts{
		Handoff: func(community string, p Placement) (uint64, time.Duration, error) {
			if community != "x" || p.Epoch != 2 {
				return 0, 0, fmt.Errorf("hook got community=%q epoch=%d", community, p.Epoch)
			}
			return 41, 1500 * time.Microsecond, nil
		},
	})
	resp, err = http.Post(srv.URL+"/v1/handoff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post handoff: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff: status %d, want 200", resp.StatusCode)
	}
	var out struct {
		Community string `json:"community"`
		Node      string `json:"node"`
		Epoch     uint64 `json:"epoch"`
		CutSeq    uint64 `json:"cut_seq"`
		PauseUS   int64  `json:"pause_us"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Community != "x" || out.Node != "b" || out.Epoch != 2 || out.CutSeq != 41 || out.PauseUS != 1500 {
		t.Fatalf("handoff response = %+v", out)
	}

	// A request naming no community is a 400 before the hook runs.
	resp, err = http.Post(srv.URL+"/v1/handoff", "application/json", strings.NewReader(`{"table":{}}`))
	if err != nil {
		t.Fatalf("post handoff: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("community-less handoff: status %d, want 400", resp.StatusCode)
	}
}

// TestStaleEpochWriteRefused: a write stamped with an epoch ahead of this
// node's table gets 421 not_owner (the stale node must not take writes for
// communities it may have lost); reads and same-epoch writes still serve.
func TestStaleEpochWriteRefused(t *testing.T) {
	srv, rt, owner := bootNode(t, "a", HandlerOpts{})
	// Pin a community here so the write path reaches the epoch check
	// without a forwarding detour.
	if ok, err := rt.SetPlacement(Placement{Epoch: 2, Nodes: testNodes("a", "b"), Assign: map[string]string{"mine": "a"}}); err != nil || !ok {
		t.Fatalf("pin table: %v %v", ok, err)
	}
	if _, err := owner.Create("mine", 6, nil, ""); err != nil {
		t.Fatalf("create: %v", err)
	}

	doWrite := func(epoch string, v int) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/communities/mine/edges",
			strings.NewReader(fmt.Sprintf(`{"u":0,"v":%d}`, v)))
		req.Header.Set("Content-Type", "application/json")
		if epoch != "" {
			req.Header.Set("X-Holiday-Epoch", epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("marry: %v", err)
		}
		return resp
	}

	resp := doWrite("7", 1) // ahead of the local epoch 2
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("ahead-epoch write: status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Holiday-Epoch"); got != "2" {
		t.Fatalf("refusal reports local epoch %q, want 2", got)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "not_owner" {
		t.Fatalf("refusal code = %q (%v), want not_owner", e.Code, err)
	}

	for i, epoch := range []string{"", "2", "1", "garbage"} {
		resp := doWrite(epoch, i+2)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("write with epoch header %q: status %d, want 200", epoch, resp.StatusCode)
		}
	}
	// Reads are never epoch-gated — a replica serving a reader with a newer
	// table is still byte-correct.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/communities/mine/window?from=1&to=10", nil)
	req.Header.Set("X-Holiday-Epoch", "7")
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("ahead-epoch read: status %d, want 200", rresp.StatusCode)
	}
}
