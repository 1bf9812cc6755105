package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
// decoded /v1/bin/window response, re-rendered as the JSON endpoint's
// payload, must be byte-identical to the JSON endpoint's actual body —
// across communities, codes, and window alignments (including windows with
// empty holidays, which must round-trip as "happy":[]).
func TestBinaryWindowMatchesJSON(t *testing.T) {
	srv, do := newTestServer(t)
	do("POST", "/communities", star9, http.StatusCreated, nil)
	do("POST", "/communities", `{"id":"tri","families":3,"edges":[[0,1],[1,2],[0,2]]}`, http.StatusCreated, nil)
	do("POST", "/communities", `{"id":"gam","families":6,"edges":[[0,1],[2,3]],"code":"gamma"}`, http.StatusCreated, nil)

	windows := [][2]int64{{1, 1}, {1, 52}, {2, 5}, {7, 7}, {37, 211}, {63, 66}, {97, 160}}
	for _, id := range []string{"demo", "tri", "gam"} {
		for _, w := range windows {
			from, to := w[0], w[1]
			jsonStatus, jsonBody := getRaw(t, srv, fmt.Sprintf("/communities/%s/window?from=%d&to=%d", id, from, to))
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
	srv := httptest.NewServer(NewHandler(HandlerOpts{Owner: reg, MaxBinBatch: 2}))
	defer srv.Close()

	winReq := wire.AppendWindowReq(nil, "demo", 1, 4)
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
		{"batch over cap", "/v1/bin/window",
			wire.AppendWindowReq(wire.AppendWindowReq(wire.AppendWindowReq(nil, "demo", 1, 2), "demo", 1, 2), "demo", 1, 2)},
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
		// The constant cost is the id string plus the emit closures and
		// their captured buffer cell; a per-row regression over 512 rows
		// would blow far past this bound.
		if allocs > 6 {
			t.Errorf("%s span %d: steady-state binary window allocates %.1f/op, want ≤ 6", id, span, allocs)
		}
		wr, err := frameFromBuf(t, buf).WindowResp()
		if err != nil || int64(wr.Rows) != span {
			t.Fatalf("%s span %d: response invalid after pooled serving: %+v (%v)", id, span, wr, err)
		}
	}
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

// TestBinBufRetention: the binary response pool must refuse buffers beyond
// binBufMax — the same retention policy as the JSON window pool — so one
// maximal batch cannot pin megabytes forever.
func TestBinBufRetention(t *testing.T) {
	if !retainBinBuf(make([]byte, 0, 1024)) {
		t.Error("small buffer refused by the pool")
	}
	if !retainBinBuf(make([]byte, 0, binBufMax)) {
		t.Error("buffer at the cap refused by the pool")
	}
	if retainBinBuf(make([]byte, 0, binBufMax+1)) {
		t.Error("oversized buffer retained; one maximal batch pins its allocation forever")
	}
	// putBinBuf of an oversized buffer must simply drop it.
	bp := new([]byte)
	putBinBuf(bp, make([]byte, 0, binBufMax+1))
}
