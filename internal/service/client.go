package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// DefaultClientTimeout bounds each request of a Client built over a nil
// *http.Client. It is generous because a handoff streams a community
// snapshot to its new owner before it answers.
const DefaultClientTimeout = 30 * time.Second

// Client speaks a node's JSON control plane — /v1/status, /v1/placement,
// /v1/handoff, /v1/promote — plus the per-community stats read,
// encoding and decoding the same body types the handlers serve. Every
// method takes the node's base URL, so one Client serves a whole cluster.
// A non-200 answer comes back as the node's {code, message} envelope, an
// *Error, so callers branch on its Code.
type Client struct {
	hc *http.Client
}

// NewClient returns a control-plane client over hc; nil means an
// *http.Client with DefaultClientTimeout.
func NewClient(hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: DefaultClientTimeout}
	}
	return &Client{hc: hc}
}

// Status reads the node's role, epoch and per-community sequences.
func (c *Client) Status(ctx context.Context, addr string) (NodeStatus, error) {
	var st NodeStatus
	err := c.do(ctx, http.MethodGet, addr, "/v1/status", nil, &st)
	return st, err
}

// Placement reads the node's installed placement table.
func (c *Client) Placement(ctx context.Context, addr string) (Placement, error) {
	var p Placement
	err := c.do(ctx, http.MethodGet, addr, "/v1/placement", nil, &p)
	return p, err
}

// Offer offers a placement table to the node, which installs it iff it
// supersedes the one in force.
func (c *Client) Offer(ctx context.Context, addr string, p Placement) (OfferResponse, error) {
	var out OfferResponse
	err := c.do(ctx, http.MethodPost, addr, "/v1/placement", p, &out)
	return out, err
}

// Handoff asks a community's owner to stream it to the node req.Table
// assigns it to.
func (c *Client) Handoff(ctx context.Context, addr string, req HandoffRequest) (HandoffResponse, error) {
	var out HandoffResponse
	err := c.do(ctx, http.MethodPost, addr, "/v1/handoff", req, &out)
	return out, err
}

// Promote makes the node take ownership of a community it replicates.
func (c *Client) Promote(ctx context.Context, addr, community string) (PromoteResponse, error) {
	var out PromoteResponse
	err := c.do(ctx, http.MethodPost, addr, "/v1/promote", PromoteRequest{Community: community}, &out)
	return out, err
}

// Stats reads one community's counters.
func (c *Client) Stats(ctx context.Context, addr, community string) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, addr, "/v1/communities/"+url.PathEscape(community), nil, &st)
	return st, err
}

// do sends one JSON request — in, when non-nil, is the body — and decodes
// a 200 answer into out. Any other status returns the node's error
// envelope, or one classified by the status when the body carries none.
func (c *Client) do(ctx context.Context, method, addr, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(addr, "/")+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// Drain what the decoder left so the connection can be reused.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return ResponseError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode answer: %w", method, req.URL, err)
	}
	return nil
}

// ResponseError decodes a failed response's {code, message} envelope, or,
// when the body carries none, classifies the response by its status. It
// reads the body and leaves closing it to the caller.
func ResponseError(resp *http.Response) *Error {
	var e Error
	if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Code == "" {
		return Errf(codeForStatus(resp.StatusCode), "%s %s: %s", resp.Request.Method, resp.Request.URL, resp.Status)
	}
	return &e
}
