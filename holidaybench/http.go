package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/benchkit"
	"repro/internal/service"
	"repro/internal/wire"
)

// traceHeader carries a sampled op's trace id to the handler.
const traceHeader = "X-Bench-Trace"

// server is service.NewHandler with holidayd's defaults (no journal, no
// coalescer) on a loopback listener in this process.
type server struct {
	base string
	srv  *http.Server
	done chan error
	// tr, when set, times every request and records a service.handler span
	// for requests carrying traceHeader.
	tr atomic.Pointer[tracer]
}

func startServer(owner *service.Owner) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	h := service.NewHandler(service.HandlerOpts{Owner: owner})
	s.srv = &http.Server{Handler: &timedHandler{next: h, s: s}, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

type timedHandler struct {
	next http.Handler
	s    *server
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.s.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := tr.now()
	h.next.ServeHTTP(w, r)
	end := tr.now()
	if v := r.Header.Get(traceHeader); v != "" {
		if id, err := strconv.ParseUint(v, 10, 64); err == nil {
			tr.addLive(liveKey{trace: id}, "service.handler", start, end)
		}
	}
}

// newClient returns an HTTP client pooling conns connections to one host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: 30 * time.Second},
		Timeout:   30 * time.Second,
	}
}

// httpWorker is the traced counterpart of benchkit's binary HTTPDriver: the
// same requests on the same routes — window and next queries as single
// binary frames on /v1/bin, marry and divorce on the JSON routes — with the
// encode, round trip and decode timed apart. Window response headers are
// decoded and checked.
type httpWorker struct {
	in     *instance
	base   string
	client *http.Client

	req       []byte
	resp      bytes.Buffer
	respBytes int64
}

// doTraced runs op and, as in-process, follows each churn op with one
// Schedule call so the freeze it forces is timed on its own.
func (w *httpWorker) doTraced(op benchkit.Op, ot *opTrace) error {
	id := w.in.sc.Communities[op.Community].ID
	var err error
	switch op.Kind {
	case benchkit.OpWindow, benchkit.OpNext:
		return w.query(op, id, ot)
	case benchkit.OpMarry:
		b := strconv.AppendInt(append(w.req[:0], `{"u":`...), int64(op.U), 10)
		b = strconv.AppendInt(append(b, `,"v":`...), int64(op.V), 10)
		w.req = append(b, '}')
		err = w.roundTrip(ot, http.MethodPost, "/communities/"+url.PathEscape(id)+"/edges", "application/json", w.req)
	case benchkit.OpDivorce:
		err = w.roundTrip(ot, http.MethodDelete, "/communities/"+url.PathEscape(id)+"/edges?u="+
			strconv.Itoa(op.U)+"&v="+strconv.Itoa(op.V), "", nil)
	default:
		return fmt.Errorf("unknown op kind %v", op.Kind)
	}
	if err != nil {
		return err
	}
	_, err = w.in.schedule(op.Community, ot)
	return err
}

// query serves one window or next op over /v1/bin.
func (w *httpWorker) query(op benchkit.Op, id string, ot *opTrace) error {
	sid := ot.start("wire.encode", 0)
	path := "/v1/bin/next"
	if op.Kind == benchkit.OpWindow {
		path = "/v1/bin/window"
		w.req = wire.AppendWindowReq(w.req[:0], id, op.From, op.To)
	} else {
		w.req = wire.AppendNextReq(w.req[:0], id, op.U, op.From)
	}
	ot.end(sid, "")
	if err := w.roundTrip(ot, http.MethodPost, path, "application/octet-stream", w.req); err != nil {
		return err
	}
	sid = ot.start("wire.decode", 0)
	defer ot.end(sid, "")
	f, rest, err := wire.Split(w.resp.Bytes())
	if err != nil {
		return fmt.Errorf("binary response framing: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d stray bytes after a single-frame response", len(rest))
	}
	switch f.Kind {
	case wire.KindError:
		status, code, msg, err := f.ErrorResp()
		if err != nil {
			return fmt.Errorf("malformed error frame: %w", err)
		}
		return fmt.Errorf("binary query failed: status %d (%s): %s", status, service.CodeFromNum(code), msg)
	case wire.KindWindowResp:
		wr, err := f.WindowResp()
		if err != nil {
			return err
		}
		if wr.From != op.From || int64(wr.Rows) != op.To-op.From+1 {
			return fmt.Errorf("window [%d,%d] answered from %d with %d rows", op.From, op.To, wr.From, wr.Rows)
		}
		return nil
	default:
		_, err := f.NextResp()
		return err
	}
}

// roundTrip sends one request and reads the whole response into w.resp,
// recording it as an http.roundtrip span for a sampled op.
func (w *httpWorker) roundTrip(ot *opTrace, method, path, contentType string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	sid := ot.start("http.roundtrip", 0)
	defer ot.end(sid, "")
	if ot != nil {
		defer ot.register(liveKey{trace: ot.trace}, sid)()
		req.Header.Set(traceHeader, strconv.FormatUint(ot.trace, 10))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	w.resp.Reset()
	n, err := w.resp.ReadFrom(resp.Body)
	w.respBytes += n
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(w.resp.Bytes()))
	}
	return nil
}
