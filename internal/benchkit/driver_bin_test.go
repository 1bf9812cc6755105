package benchkit

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// TestRunHTTPBinary drives the full stack over the binary protocol, both
// unbatched and batched, and checks the snapshot records the protocol so
// comparisons against JSON runs refuse to gate.
func TestRunHTTPBinary(t *testing.T) {
	reg := service.New(service.Opts{})
	srv := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer srv.Close()

	d := NewHTTPDriver(srv.URL, 2)
	d.Proto = ProtoBinary
	snap, err := Run(testScenario(), d, Options{Seed: 3, Workers: 2, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, snap, "http")
	if snap.Proto != ProtoBinary || snap.Batch != 0 {
		t.Fatalf("snapshot records proto %q batch %d, want %q and 0", snap.Proto, snap.Batch, ProtoBinary)
	}

	batched, err := Run(testScenario(), d, Options{Seed: 3, Workers: 2, Batch: 8, Rev: "test"})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, batched, "http")
	if batched.Proto != ProtoBinary || batched.Batch != 8 {
		t.Fatalf("snapshot records proto %q batch %d, want %q and 8", batched.Proto, batched.Batch, ProtoBinary)
	}
	if got := reg.List(); len(got) != 0 {
		t.Errorf("binary driver left communities on the server after Close: %v", got)
	}

	// Mismatched runs must refuse to gate, not quietly compare.
	if cmp := Compare(snap, batched, 0.25); cmp.Pass || !strings.Contains(cmp.Mismatch, "batch") {
		t.Fatalf("batched vs unbatched comparison: %+v", cmp)
	}
	jsonSnap := *snap
	jsonSnap.Proto = ""
	if cmp := Compare(&jsonSnap, snap, 0.25); cmp.Pass || !strings.Contains(cmp.Mismatch, "protocol") {
		t.Fatalf("binary vs JSON comparison: %+v", cmp)
	}
}

// TestDoBatchMapsErrors: per-op failures inside a batch must land at their
// position while the rest of the batch is served.
func TestDoBatchMapsErrors(t *testing.T) {
	reg := service.New(service.Opts{})
	if _, err := reg.Create("c", 16, [][2]int{{0, 1}}, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer srv.Close()

	d := NewHTTPDriver(srv.URL, 1)
	d.Proto = ProtoBinary
	d.ids = []string{"c"}

	ops := []Op{
		{Kind: OpWindow, Community: 0, From: 1, To: 4},
		{Kind: OpWindow, Community: 0, From: 9, To: 3}, // empty window → 400 in band
		{Kind: OpNext, Community: 0, U: 1, From: 1},
		{Kind: OpNext, Community: 0, U: 99, From: 1}, // unknown family → 404 in band
	}
	errs := make([]error, len(ops))
	if err := d.DoBatch(ops, errs); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid ops errored: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "status 400") {
		t.Fatalf("empty window op: %v, want an in-band 400", errs[1])
	}
	if errs[3] == nil || !strings.Contains(errs[3].Error(), "status 404") {
		t.Fatalf("unknown family op: %v, want an in-band 404", errs[3])
	}
}

// TestRunBatchNeedsBinaryProto: the JSON protocol has no batched form, so a
// batched run over a JSON HTTPDriver fails with the reason instead of
// silently sending ops one at a time, and still removes its communities.
func TestRunBatchNeedsBinaryProto(t *testing.T) {
	reg := service.New(service.Opts{})
	srv := httptest.NewServer(service.NewHandler(service.HandlerOpts{Owner: reg}))
	defer srv.Close()
	_, err := Run(testScenario(), NewHTTPDriver(srv.URL, 1), Options{Batch: 4, Workers: 1, Duration: 20 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "binary protocol") {
		t.Fatalf("want a binary-protocol error, got %v", err)
	}
	if got := reg.List(); len(got) != 0 {
		t.Errorf("refused run left communities on the server: %v", got)
	}
}
