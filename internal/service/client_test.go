package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestControlBodiesPinned pins the exact promote, placement-offer and
// handoff answer bodies: their field order is the wire format clients and
// operators' scripts read.
func TestControlBodiesPinned(t *testing.T) {
	srv, _, owner := bootNode(t, "a", HandlerOpts{
		Handoff: func(community string, p Placement) (uint64, time.Duration, error) {
			return 41, 1500 * time.Microsecond, nil
		},
	})
	if _, err := owner.Create("x", 3, nil, ""); err != nil {
		t.Fatalf("create: %v", err)
	}
	owner.Fence("x")
	post := func(path, body, want string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post %s: %v", path, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("post %s: status %d, read %v", path, resp.StatusCode, err)
		}
		if string(got) != want {
			t.Fatalf("post %s body:\n got %q\nwant %q", path, got, want)
		}
	}
	post("/v1/promote", `{"community":"x"}`, `{"community":"x","epoch":1,"node":"a","seq":0}`+"\n")
	table, _ := json.Marshal(Placement{Epoch: 3, Nodes: testNodes("a", "b")})
	post("/v1/placement", string(table), `{"epoch":3,"installed":true}`+"\n")
	handoff, _ := json.Marshal(map[string]any{
		"community": "x", "table": Placement{Epoch: 4, Nodes: testNodes("a", "b"), Assign: map[string]string{"x": "b"}},
	})
	post("/v1/handoff", string(handoff), `{"community":"x","cut_seq":41,"epoch":4,"node":"b","pause_us":1500}`+"\n")
}

// TestClient drives every Client method against a live handler, and checks
// that a refusal surfaces as the node's envelope — or, from a server that
// sends none, as one classified by the HTTP status.
func TestClient(t *testing.T) {
	srv, rt, owner := bootNode(t, "a", HandlerOpts{})
	if _, err := owner.Create("x", 3, [][2]int{{0, 1}}, ""); err != nil {
		t.Fatalf("create: %v", err)
	}
	ctx := context.Background()
	cl := NewClient(nil)

	// A trailing slash on the base URL is tolerated.
	st, err := cl.Status(ctx, srv.URL+"/")
	if err != nil || st.Node != "a" || len(st.Communities) != 1 || st.Communities[0].ID != "x" {
		t.Fatalf("Status = %+v, %v", st, err)
	}
	stats, err := cl.Stats(ctx, srv.URL, "x")
	if err != nil || stats.Families != 3 || stats.Marriages != 1 {
		t.Fatalf("Stats = %+v, %v", stats, err)
	}
	next := Placement{Epoch: 2, Nodes: testNodes("a", "b"), Assign: map[string]string{"x": "a"}}
	if out, err := cl.Offer(ctx, srv.URL, next); err != nil || !out.Installed || out.Epoch != 2 {
		t.Fatalf("Offer = %+v, %v", out, err)
	}
	p, err := cl.Placement(ctx, srv.URL)
	if err != nil || p.Fingerprint() != next.Fingerprint() || rt.Epoch() != 2 {
		t.Fatalf("Placement = %+v, %v", p, err)
	}

	var ae *Error
	_, err = cl.Promote(ctx, srv.URL, "ghost")
	if !errors.As(err, &ae) || ae.Code != CodeNotFound || ae.Message != `no community "ghost" on this node` {
		t.Fatalf("Promote of an absent community: %v", err)
	}
	// The handoff endpoint without a daemon hook refuses with unavailable.
	_, err = cl.Handoff(ctx, srv.URL, HandoffRequest{Community: "x", Table: next})
	if !errors.As(err, &ae) || ae.Code != CodeUnavailable {
		t.Fatalf("Handoff without a hook: %v", err)
	}

	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream down", http.StatusBadGateway)
	}))
	defer bare.Close()
	if _, err := cl.Placement(ctx, bare.URL); !errors.As(err, &ae) || ae.Code != CodeUnavailable ||
		!strings.Contains(ae.Message, "502") {
		t.Fatalf("Placement against a bare 502: %v", err)
	}
}
