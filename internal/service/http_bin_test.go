package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// binPost posts a raw frame batch to a binary endpoint and returns the
// status, body, and content type.
func binPost(t *testing.T, srv *httptest.Server, path string, body []byte) (int, []byte, string) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("Content-Type")
}

// getRaw fetches a JSON endpoint and returns status and raw body bytes.
func getRaw(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// splitOne asserts the body is exactly one frame and returns it.
func splitOne(t *testing.T, body []byte) wire.Frame {
	t.Helper()
	f, rest, err := wire.Split(body)
	if err != nil {
		t.Fatalf("Split response: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d stray bytes after the response frame", len(rest))
	}
	return f
}

// TestBinaryWindowMatchesJSON is the HTTP-level differential proof: a
// decoded /v1/bin/window response, re-rendered by encoding/json as the JSON
// endpoint's payload, must be byte-identical to the JSON endpoint's actual
// body — across communities, codes, both kinds, and window alignments
// (including windows with empty holidays, which must round-trip as
// "happy":[]), and for an id encoding/json escapes ("a<b&c" renders as
// "a\u003cb\u0026c").
func TestBinaryWindowMatchesJSON(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/communities", star9, http.StatusCreated, nil)
	do("POST", "/communities", `{"id":"tri","families":3,"edges":[[0,1],[1,2],[0,2]]}`, http.StatusCreated, nil)
	do("POST", "/communities", `{"id":"gam","families":6,"edges":[[0,1],[2,3]],"code":"gamma"}`, http.StatusCreated, nil)
	do("POST", "/communities", `{"id":"a<b&c","families":5,"edges":[[0,1],[1,2],[3,4]]}`, http.StatusCreated, nil)
	do("POST", "/communities", `{"id":"poly","kind":"poly","families":8,`+
		`"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0],[0,2]],"demands":[4,8,8,16,16,16,32,32,8]}`, http.StatusCreated, nil)

	windows := [][2]int64{{1, 1}, {1, 52}, {2, 5}, {7, 7}, {37, 211}, {63, 66}, {97, 160}}
	for _, id := range []string{"demo", "tri", "gam", "a<b&c", "poly"} {
		for _, w := range windows {
			from, to := w[0], w[1]
			jsonStatus, jsonBody := getRaw(t, srv, fmt.Sprintf("/communities/%s/window?from=%d&to=%d", url.PathEscape(id), from, to))
			if jsonStatus != http.StatusOK {
				t.Fatalf("%s [%d,%d]: JSON status %d", id, from, to, jsonStatus)
			}
			binStatus, binBody, ct := binPost(t, srv, "/v1/bin/window", wire.AppendWindowReq(nil, id, from, to))
			if binStatus != http.StatusOK || ct != "application/octet-stream" {
				t.Fatalf("%s [%d,%d]: binary status %d, content type %q", id, from, to, binStatus, ct)
			}
			wr, err := splitOne(t, binBody).WindowResp()
			if err != nil {
				t.Fatalf("%s [%d,%d]: %v", id, from, to, err)
			}
			if int64(wr.Rows) != to-from+1 || wr.From != from {
				t.Fatalf("%s [%d,%d]: binary header from=%d rows=%d", id, from, to, wr.From, wr.Rows)
			}
			// Re-render the binary decode as the JSON payload. Happy starts
			// from a non-nil empty slice so empty holidays marshal "[]".
			rebuilt := windowResponse{Community: id, From: from, To: to}
			for i := 0; i < wr.Rows; i++ {
				rebuilt.Holidays = append(rebuilt.Holidays, HolidayRow{
					Holiday: wr.Holiday(i),
					Happy:   wr.AppendHappy([]int{}, i),
				})
			}
			want, err := json.Marshal(&rebuilt)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n') // writeJSON streams via json.Encoder
			if !bytes.Equal(jsonBody, want) {
				t.Fatalf("%s [%d,%d]: JSON body and re-rendered binary decode differ:\n json %s\n bin  %s",
					id, from, to, jsonBody, want)
			}
		}
	}
}

// TestBinaryNextMatchesJSON: same differential proof for the next-happy
// query.
func TestBinaryNextMatchesJSON(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/communities", star9, http.StatusCreated, nil)
	for v := 0; v < 9; v += 2 {
		for _, from := range []int64{1, 7, 1000, 1 << 40} {
			jsonStatus, jsonBody := getRaw(t, srv, fmt.Sprintf("/communities/demo/families/%d/next?from=%d", v, from))
			if jsonStatus != http.StatusOK {
				t.Fatalf("family %d from %d: JSON status %d", v, from, jsonStatus)
			}
			binStatus, binBody, _ := binPost(t, srv, "/v1/bin/next", wire.AppendNextReq(nil, "demo", v, from))
			if binStatus != http.StatusOK {
				t.Fatalf("family %d from %d: binary status %d", v, from, binStatus)
			}
			next, err := splitOne(t, binBody).NextResp()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(&nextResponse{Community: "demo", Family: v, From: from, Next: next})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(jsonBody, want) {
				t.Fatalf("family %d from %d: JSON body and re-rendered binary decode differ:\n json %s\n bin  %s",
					v, from, jsonBody, want)
			}
		}
	}
}

// TestBinaryBatch: a batch answers every frame in order, and a failing
// query in the middle becomes an Error frame in position without sinking
// the rest of the batch.
func TestBinaryBatch(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/communities", star9, http.StatusCreated, nil)

	req := wire.AppendWindowReq(nil, "demo", 1, 4)
	req = wire.AppendWindowReq(req, "ghost", 1, 4) // unknown community
	req = wire.AppendWindowReq(req, "demo", 10, 12)
	status, body, _ := binPost(t, srv, "/v1/bin/window", req)
	if status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	f1, rest, err := wire.Split(body)
	if err != nil {
		t.Fatal(err)
	}
	f2, rest, err := wire.Split(rest)
	if err != nil {
		t.Fatal(err)
	}
	f3, rest, err := wire.Split(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d stray bytes after the batch", len(rest))
	}
	wr1, err := f1.WindowResp()
	if err != nil || wr1.From != 1 || wr1.Rows != 4 {
		t.Fatalf("frame 1 = %+v (%v)", wr1, err)
	}
	estatus, ecode, msg, err := f2.ErrorResp()
	if err != nil || estatus != http.StatusNotFound || ecode != CodeNotFound.Num() || !strings.Contains(msg, "ghost") {
		t.Fatalf("frame 2 = %d %q (%v), want a 404 naming the community", estatus, msg, err)
	}
	wr3, err := f3.WindowResp()
	if err != nil || wr3.From != 10 || wr3.Rows != 3 {
		t.Fatalf("frame 3 = %+v (%v)", wr3, err)
	}

	// Same shape on the next endpoint: an out-of-range family errors in
	// position.
	req = wire.AppendNextReq(nil, "demo", 1, 5)
	req = wire.AppendNextReq(req, "demo", 99, 5)
	status, body, _ = binPost(t, srv, "/v1/bin/next", req)
	if status != http.StatusOK {
		t.Fatalf("next batch status %d", status)
	}
	f1, rest, err = wire.Split(body)
	if err != nil {
		t.Fatal(err)
	}
	f2, rest, err = wire.Split(rest)
	if err != nil || len(rest) != 0 {
		t.Fatalf("next batch framing: %v (%d rest)", err, len(rest))
	}
	if next, err := f1.NextResp(); err != nil || next < 5 {
		t.Fatalf("frame 1 next = %d (%v)", next, err)
	}
	if estatus, _, _, err := f2.ErrorResp(); err != nil || estatus != http.StatusNotFound {
		t.Fatalf("frame 2 = %d (%v), want 404 for an unknown family", estatus, err)
	}
}

// TestBinaryErrorStatusesMirrorJSON: every per-query failure must carry the
// same status in its binary Error frame as the JSON endpoint returns for
// the equivalent request.
func TestBinaryErrorStatusesMirrorJSON(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/communities", star9, http.StatusCreated, nil)

	cases := []struct {
		name     string
		jsonPath string
		frame    []byte
		endpoint string
	}{
		{"unknown community", "/communities/nope/window?from=1&to=2",
			wire.AppendWindowReq(nil, "nope", 1, 2), "/v1/bin/window"},
		{"from below 1", "/communities/demo/window?from=0&to=5",
			wire.AppendWindowReq(nil, "demo", 0, 5), "/v1/bin/window"},
		{"empty window", "/communities/demo/window?from=9&to=3",
			wire.AppendWindowReq(nil, "demo", 9, 3), "/v1/bin/window"},
		{"over max span", fmt.Sprintf("/communities/demo/window?from=1&to=%d", MaxWindow+2),
			wire.AppendWindowReq(nil, "demo", 1, int64(MaxWindow)+2), "/v1/bin/window"},
		{"past horizon", fmt.Sprintf("/communities/demo/window?from=%d&to=%d", core.MaxHoliday+1, core.MaxHoliday+2),
			wire.AppendWindowReq(nil, "demo", core.MaxHoliday+1, core.MaxHoliday+2), "/v1/bin/window"},
		{"unknown family", "/communities/demo/families/99/next?from=1",
			wire.AppendNextReq(nil, "demo", 99, 1), "/v1/bin/next"},
		{"next past horizon", fmt.Sprintf("/communities/demo/families/1/next?from=%d", core.MaxHoliday+1),
			wire.AppendNextReq(nil, "demo", 1, core.MaxHoliday+1), "/v1/bin/next"},
		{"next unknown community", "/communities/nope/families/1/next?from=1",
			wire.AppendNextReq(nil, "nope", 1, 1), "/v1/bin/next"},
	}
	for _, tc := range cases {
		jsonStatus, _ := getRaw(t, srv, tc.jsonPath)
		if jsonStatus == http.StatusOK {
			t.Fatalf("%s: JSON request unexpectedly succeeded", tc.name)
		}
		status, body, _ := binPost(t, srv, tc.endpoint, tc.frame)
		if status != http.StatusOK {
			t.Fatalf("%s: per-query failures answer in-band, got HTTP %d", tc.name, status)
		}
		estatus, _, msg, err := splitOne(t, body).ErrorResp()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if int(estatus) != jsonStatus {
			t.Fatalf("%s: binary error status %d, JSON endpoint returned %d (%q)", tc.name, estatus, jsonStatus, msg)
		}
	}
}

// TestBinaryProtocolViolations: framing-level problems fail the whole
// request with a JSON 400 — no per-frame correspondence exists to answer
// in-band.
func TestBinaryProtocolViolations(t *testing.T) {
	reg := New(Opts{})
	if _, err := reg.Create("demo", 9, [][2]int{{0, 1}}, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(HandlerOpts{Owner: reg}))
	defer srv.Close()

	winReq := wire.AppendWindowReq(nil, "demo", 1, 4)
	var overCap []byte
	for i := 0; i <= MaxBatch; i++ {
		overCap = wire.AppendWindowReq(overCap, "demo", 1, 2)
	}
	cases := []struct {
		name     string
		endpoint string
		body     []byte
	}{
		{"empty batch", "/v1/bin/window", nil},
		{"garbage", "/v1/bin/window", []byte("GET / HTTP/1.0")},
		{"truncated frame", "/v1/bin/window", winReq[:len(winReq)-3]},
		{"wrong kind for window", "/v1/bin/window", wire.AppendNextReq(nil, "demo", 1, 1)},
		{"wrong kind for next", "/v1/bin/next", winReq},
		{"response kind", "/v1/bin/window", wire.AppendNextResp(nil, 9)},
		{"batch over cap", "/v1/bin/window", overCap},
		{"trailing garbage", "/v1/bin/window", append(append([]byte(nil), winReq...), 0xff)},
	}
	for _, tc := range cases {
		status, body, ct := binPost(t, srv, tc.endpoint, tc.body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, status)
		}
		if ct != "application/json" {
			t.Fatalf("%s: content type %q, want a JSON error body", tc.name, ct)
		}
		var e Error
		if err := json.Unmarshal(body, &e); err != nil || e.Code == "" || e.Message == "" {
			t.Fatalf("%s: body %q is not a {code, message} envelope (%v)", tc.name, body, err)
		}
	}

	// Wrong method: the binary endpoints are POST-only.
	resp, err := srv.Client().Get(srv.URL + "/v1/bin/window")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/bin/window: status %d, want 405", resp.StatusCode)
	}
}

// TestJSONWrongMethod: the JSON query endpoints reject writes and the churn
// endpoints reject reads — kept next to the binary method test so both
// protocols pin their method sets.
func TestJSONWrongMethod(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/communities", star9, http.StatusCreated, nil)
	for _, tc := range [][2]string{
		{"POST", "/communities/demo/window?from=1&to=2"},
		{"DELETE", "/communities/demo/window"},
		{"POST", "/communities/demo/families/1/next"},
		{"GET", "/communities/demo/edges"},
		{"PUT", "/communities"},
	} {
		req, err := http.NewRequest(tc[0], srv.URL+tc[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc[0], tc[1], resp.StatusCode)
		}
	}
}

// TestServeBinWindowAllocs is the satellite regression test for the binary
// window path: steady-state serving must not allocate per row — the packed
// rows stream straight into the pooled response buffer, so the per-query
// allocation count is a small constant regardless of the window size.
func TestServeBinWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	reg := New(Opts{})
	if _, err := reg.Create("c", 500, [][2]int{{0, 1}, {1, 2}, {3, 4}}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateSpec(CreateSpec{ID: "p", Kind: KindPoly, Families: 500, Edges: [][2]int{{0, 1}, {1, 2}, {3, 4}}}); err != nil {
		t.Fatal(err)
	}
	a := &apiHandler{HandlerOpts: HandlerOpts{Owner: reg}}
	for _, q := range []struct {
		id   string
		span int64
	}{{"c", 52}, {"c", 512}, {"p", 52}, {"p", 512}} {
		id, span := q.id, q.span
		frame := splitOne(t, wire.AppendWindowReq(nil, id, 1, span))
		buf := make([]byte, 0, 1<<20)
		for i := 0; i < 4; i++ { // warm the core bitmap scratch pool
			buf = a.serveBinWindow(buf[:0], frame)
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf = a.serveBinWindow(buf[:0], frame)
		})
		// The bound leaves room for a small constant cost (the path
		// allocates nothing today); a per-row regression over 512 rows
		// would blow far past it.
		if allocs > 6 {
			t.Errorf("%s span %d: steady-state binary window allocates %.1f/op, want ≤ 6", id, span, allocs)
		}
		wr, err := frameFromBuf(t, buf).WindowResp()
		if err != nil || int64(wr.Rows) != span {
			t.Fatalf("%s span %d: response invalid after pooled serving: %+v (%v)", id, span, wr, err)
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the byte count, so an
// allocation count measures the handler and not a growing recorder.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestServeWindowAllocs is the JSON counterpart of TestServeBinWindowAllocs:
// the JSON window is appended straight from the frozen schedule into the
// pooled stage, so a steady-state query through the handler allocates the
// same count at 52 and at 512 holidays.
func TestServeWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	reg := New(Opts{})
	if _, err := reg.Create("c", 500, [][2]int{{0, 1}, {1, 2}, {3, 4}}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateSpec(CreateSpec{ID: "p", Kind: KindPoly, Families: 500, Edges: [][2]int{{0, 1}, {1, 2}, {3, 4}}}); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(HandlerOpts{Owner: reg})
	for _, id := range []string{"c", "p"} {
		var allocs [2]float64
		for i, span := range []int{52, 512} {
			req := httptest.NewRequest("GET", fmt.Sprintf("/v1/communities/%s/window?from=1&to=%d", id, span), nil)
			w := &discardWriter{h: http.Header{}}
			serve := func() { h.ServeHTTP(w, req) }
			for range 4 { // warm the stage and the core scratch pools
				serve()
			}
			allocs[i] = testing.AllocsPerRun(100, serve)
			if w.n == 0 || w.h.Get("Content-Type") != "application/json" {
				t.Fatalf("%s span %d: no JSON body served", id, span)
			}
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: steady-state JSON window allocates %.0f/op at 52 holidays but %.0f/op at 512",
				id, allocs[0], allocs[1])
		}
	}
}

// TestBinaryWindowFitsOneFrame: a window whose response frame would exceed
// wire.MaxFrame is refused in position with a 400 naming the largest span
// that fits, and the rest of the batch is still served; a window of exactly
// that span answers a frame wire.Split accepts.
func TestBinaryWindowFitsOneFrame(t *testing.T) {
	const families = 40_000
	reg := New(Opts{})
	if _, err := reg.Create("big", families, [][2]int{{0, 1}}, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(HandlerOpts{Owner: reg}))
	defer srv.Close()
	fit := wire.WindowRespRows(families)
	if fit >= MaxWindow {
		t.Fatalf("%d families fit a whole MaxWindow span (%d holidays); the test needs a larger community", families, fit)
	}
	req := wire.AppendWindowReq(nil, "big", 1, MaxWindow)
	req = wire.AppendWindowReq(req, "big", 1, int64(fit))
	req = wire.AppendWindowReq(req, "big", 1, int64(fit)+1)
	status, body, _ := binPost(t, srv, "/v1/bin/window", req)
	if status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	refused := func(f wire.Frame, span int) {
		t.Helper()
		estatus, ecode, msg, err := f.ErrorResp()
		if err != nil || estatus != http.StatusBadRequest || ecode != CodeBadRequest.Num() ||
			!strings.Contains(msg, fmt.Sprintf("at most %d holidays", fit)) {
			t.Fatalf("span %d: got %d %q (%v), want a 400 bad_request naming the %d-holiday limit", span, estatus, msg, err, fit)
		}
	}
	f, rest, err := wire.Split(body)
	if err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	refused(f, MaxWindow)
	if f, rest, err = wire.Split(rest); err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	if wr, err := f.WindowResp(); err != nil || wr.N != families || wr.Rows != fit {
		t.Fatalf("frame 2 = %d rows over %d families (%v), want %d rows over %d", wr.Rows, wr.N, err, fit, families)
	}
	if f, rest, err = wire.Split(rest); err != nil || len(rest) != 0 {
		t.Fatalf("frame 3: %v (%d stray bytes)", err, len(rest))
	}
	refused(f, fit+1)
}

// frameFromBuf splits a single frame out of an in-process response buffer.
func frameFromBuf(t *testing.T, buf []byte) wire.Frame {
	t.Helper()
	f, rest, err := wire.Split(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("response buffer is not one frame: %v (%d rest)", err, len(rest))
	}
	return f
}

// TestStageRetention: the one response pool keeps a buffer at stageMax and
// drops a larger one, so a rare maximal response cannot pin its allocation
// forever.
func TestStageRetention(t *testing.T) {
	w := &discardWriter{h: http.Header{}}
	big := &staged{b: make([]byte, 0, stageMax+1)}
	big.send(w, http.StatusOK, "application/octet-stream")
	if s := getStage(); s == big {
		t.Fatal("a stage above stageMax was pooled")
	}
	// sync.Pool may drop any Put (the race detector drops a quarter on
	// purpose), so a stage at the cap gets a few chances to come back.
	for i := 0; ; i++ {
		atCap := &staged{b: make([]byte, 0, stageMax)}
		atCap.send(w, http.StatusOK, "application/octet-stream")
		if getStage() == atCap {
			break
		}
		if i == 20 {
			t.Fatal("a stage at stageMax was never pooled")
		}
	}
}
