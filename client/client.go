// Package client is the Go SDK for the xseedd estimation server: a thin,
// dependency-free HTTP client over the public xseed/api wire contract
// (versioned /v1 routes), with connection pooling, per-call
// context.Context, configurable retries on idempotent calls, and batch
// estimate helpers.
//
// A Client bound to a synopsis (Synopsis, or the WithSynopsis option)
// implements xseed.Estimator, so an optimizer built against the interface
// runs unchanged whether its estimates come from an embedded
// xseed.Synopsis or a remote xseedd:
//
//	c, _ := client.New("http://localhost:8080", client.WithSynopsis("auction"))
//	res, err := c.EstimateBatch(ctx, []string{"//open_auction[bidder]/seller"})
//
// Every API failure is returned as an *api.Error whose Code — not the
// HTTP status — is the contract; a query that fails to parse reports the
// byte offset structurally via api.Error.ParseDetail, identically to the
// embedded backend.
//
// For high-frequency estimate traffic the package also speaks xtp, the
// binary protocol an xseedd serves on its -xtp listener: DialXTP returns
// an XTP backend with the same Estimator surface and error taxonomy over
// pipelined length-prefixed frames on one multiplexed connection. See the
// XTP type and docs/PROTOCOL.md. A conformance suite holds the two
// transports to identical observable behavior.
package client

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

	"xseed"
	"xseed/api"
)

// Client talks to one xseedd server. It is safe for concurrent use; the
// zero value is not usable — construct with New.
type Client struct {
	base     string // normalized base URL, no trailing slash
	hc       *http.Client
	synopsis string // bound synopsis for the Estimator methods ("" = unbound)
	token    string // bearer token sent on every request ("" = none)
	tenant   string // tenant ID for partition routing (Cluster only)
	xtpEst   bool   // route estimates over xtp (Cluster only)

	retries    int           // extra attempts for idempotent calls
	backoff    time.Duration // base sleep between attempts (linear, jittered)
	backoffCap time.Duration // upper bound on any one sleep
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transport, TLS, timeouts). The default uses http.DefaultTransport's
// pooling with no overall timeout — deadlines come from each call's ctx.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry makes idempotent calls (every GET — including snapshot
// downloads — and estimates, which are read-only by construction) retry
// up to n extra times on transport errors and 502/503/504 responses,
// sleeping backoff, 2*backoff, ... between attempts (context-aware), each
// sleep jittered ±20% and capped (2s default; WithRetryCap changes it) so
// clients that failed together do not retry in lockstep. Non-idempotent
// calls (create, feedback, subtree, snapshot upload, admin) never retry.
func WithRetry(n int, backoff time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = n, backoff }
}

// WithRetryCap bounds any single retry sleep (default 2s): with a long
// retry budget the linear ramp stops growing at the cap instead of
// stretching into multi-second stalls per attempt.
func WithRetryCap(cap time.Duration) Option {
	return func(c *Client) { c.backoffCap = cap }
}

// WithSynopsis binds the client to a synopsis name, enabling the
// xseed.Estimator methods (EstimateBatch, Feedback).
func WithSynopsis(name string) Option { return func(c *Client) { c.synopsis = name } }

// WithToken sends the bearer token on every request as
// "Authorization: Bearer <token>", scoping calls to the token's tenant on
// a multi-tenant server (-tenants). An untenanted server ignores the
// header, so setting a token is always safe; an unknown token fails every
// call with api.CodeUnauthorized.
func WithToken(token string) Option { return func(c *Client) { c.token = token } }

// WithTenantID names the tenant whose synopses the client addresses. Only
// the partition-aware Cluster client consults it — node ownership hashes
// the (tenant, name) store key, so routing must hash the same tenant the
// server resolves from the bearer token. A plain Client ignores it (the
// server alone maps token to tenant). Defaults to the untenanted
// namespace when unset.
func WithTenantID(id string) Option { return func(c *Client) { c.tenant = id } }

// WithXTPEstimates makes a Cluster route estimate batches over each
// owner's xtp listener (binary frames, one pipelined connection per node)
// instead of HTTP. Everything else — create, delete, list, snapshots —
// stays on HTTP. A plain Client ignores it; use DialXTP directly for a
// single-node binary-transport client.
func WithXTPEstimates() Option { return func(c *Client) { c.xtpEst = true } }

// New builds a client for the server at baseURL (e.g.
// "http://10.0.0.7:8080"; a bare "host:port" gets "http://" prefixed).
func New(baseURL string, opts ...Option) (*Client, error) {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parse base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: unsupported scheme %q", u.Scheme)
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{},
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Synopsis returns a copy of the client bound to the named synopsis; the
// copy shares the connection pool and implements xseed.Estimator.
func (c *Client) Synopsis(name string) *Client {
	bound := *c
	bound.synopsis = name
	return &bound
}

// do runs one API call: marshal in (nil = no body), issue method path,
// decode a 2xx response into out (nil = discard), and map any non-2xx
// response onto *api.Error. Idempotent calls retry per WithRetry (see
// send), a 2xx response whose body fails to read included. A done
// context always surfaces as the context's error (context.Canceled /
// context.DeadlineExceeded), never as a transport error string.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
	}
	var data []byte
	err := c.send(ctx, method, path, body, idempotent, func(resp *http.Response) (err error) {
		data, err = io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		resp.Body.Close()
		return err
	})
	if err != nil || out == nil || len(data) == 0 {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// send is the retry loop under every call but a snapshot upload. It
// issues method path with body (nil = none, else JSON) and hands a 2xx
// response to take, which owns the response body. A non-2xx response is
// an *api.Error decoded from at most 1 MiB of its body; a body that fails
// to read leaves the status alone to name the code. An idempotent call
// retries per WithRetry on a transport error, on a take error (a body
// that failed to read) and on a retriable status (retriableStatus).
func (c *Client) send(ctx context.Context, method, path string, body []byte, idempotent bool, take func(*http.Response) error) error {
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retryDelay(attempt, c.backoff, c.backoffCap, jitter)):
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return fmt.Errorf("client: build request: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		c.authorize(req)
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			if err = take(resp); err == nil {
				return nil
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			lastErr = fmt.Errorf("client: read response: %w", err)
			continue
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		apiErr := api.DecodeErrorBody(resp.StatusCode, data)
		if retriableStatus(resp.StatusCode) {
			lastErr = apiErr
			continue
		}
		return apiErr
	}
	return lastErr
}

// authorize attaches the configured bearer token, if any.
func (c *Client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

func retriableStatus(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	case http.StatusMisdirectedRequest:
		// 421 is api.CodeMoved: the synopsis lives on another cluster node.
		// Against a router the retry lands after the router re-reads the
		// ring; against a node, after an ownership flip settles. The
		// partition-aware Cluster client intercepts the typed error first
		// and re-routes instead of blindly retrying.
		return true
	}
	return false
}

func synPath(name, suffix string) string {
	return "/v1/synopses/" + url.PathEscape(name) + suffix
}

// Health checks the server's liveness probe.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil, true)
}

// Stats fetches server-wide registry, cache, rebalance, and store stats.
func (c *Client) Stats(ctx context.Context) (api.Stats, error) {
	var st api.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st, true)
	return st, err
}

// List returns every registered synopsis, sorted by name.
func (c *Client) List(ctx context.Context) ([]api.SynopsisInfo, error) {
	var out []api.SynopsisInfo
	err := c.do(ctx, http.MethodGet, "/v1/synopses", nil, &out, true)
	return out, err
}

// Create builds and registers a synopsis server-side from the request's
// single source.
func (c *Client) Create(ctx context.Context, req api.CreateRequest) (api.SynopsisInfo, error) {
	var info api.SynopsisInfo
	err := c.do(ctx, http.MethodPost, "/v1/synopses", req, &info, false)
	return info, err
}

// Get returns one synopsis's stats.
func (c *Client) Get(ctx context.Context, name string) (api.SynopsisInfo, error) {
	var info api.SynopsisInfo
	err := c.do(ctx, http.MethodGet, synPath(name, ""), nil, &info, true)
	return info, err
}

// Delete unregisters the synopsis and removes its persisted state.
func (c *Client) Delete(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, synPath(name, ""), nil, nil, false)
}

// Estimate runs one estimate request — a single query or a batch —
// against the named synopsis, returning the full wire response. Estimates
// are read-only, so the call retries per WithRetry.
func (c *Client) Estimate(ctx context.Context, name string, req api.EstimateRequest) (api.EstimateResponse, error) {
	var resp api.EstimateResponse
	err := c.do(ctx, http.MethodPost, synPath(name, "/estimate"), req, &resp, true)
	return resp, err
}

// Subtree applies an incremental document update to the named synopsis.
func (c *Client) Subtree(ctx context.Context, name string, req api.SubtreeRequest) error {
	return c.do(ctx, http.MethodPost, synPath(name, "/subtree"), req, nil, false)
}

// SnapshotGet downloads the serialized synopsis; the caller must Close the
// reader. Feed it to xseed.ReadSynopsis to rehydrate locally. The download
// is a bodyless GET, so it retries per WithRetry like every other
// idempotent call; the body of the attempt that succeeds comes back
// unread.
func (c *Client) SnapshotGet(ctx context.Context, name string) (io.ReadCloser, error) {
	var snapshot io.ReadCloser
	err := c.send(ctx, http.MethodGet, synPath(name, "/snapshot"), nil, true, func(resp *http.Response) error {
		snapshot = resp.Body
		return nil
	})
	return snapshot, err
}

// SnapshotPut registers (or replaces) the named synopsis from a serialized
// snapshot stream — the remote twin of xseed.ReadSynopsis.
func (c *Client) SnapshotPut(ctx context.Context, name string, snapshot io.Reader) (api.SynopsisInfo, error) {
	var info api.SynopsisInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+synPath(name, "/snapshot"), snapshot)
	if err != nil {
		return info, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return info, ctxErr
		}
		return info, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return info, err
	}
	if resp.StatusCode != http.StatusCreated {
		return info, api.DecodeErrorBody(resp.StatusCode, data)
	}
	return info, json.Unmarshal(data, &info)
}

// SetAggregateBudget re-targets the server's fleet-wide memory budget
// (0 lifts it). Budgets apply asynchronously; poll Stats until
// rebalance.appliedGen reaches the returned generation.
func (c *Client) SetAggregateBudget(ctx context.Context, bytes int) (api.RebalanceStats, error) {
	var st api.RebalanceStats
	err := c.do(ctx, http.MethodPost, "/v1/admin/budget", api.BudgetRequest{Bytes: bytes}, &st, false)
	return st, err
}

// Compact folds the named synopsis's delta log into a fresh base snapshot
// (name "" compacts everything with a non-empty log).
func (c *Client) Compact(ctx context.Context, name string) (api.CompactResponse, error) {
	path := "/v1/admin/compact"
	if name != "" {
		path += "?synopsis=" + url.QueryEscape(name)
	}
	var resp api.CompactResponse
	err := c.do(ctx, http.MethodPost, path, nil, &resp, false)
	return resp, err
}

// EstimateBatch implements xseed.Estimator against the bound synopsis:
// one POST, N queries, per-query result-or-error in request order.
func (c *Client) EstimateBatch(ctx context.Context, queries []string) ([]xseed.Result, error) {
	name, err := c.boundSynopsis()
	if err != nil {
		return nil, err
	}
	resp, err := c.Estimate(ctx, name, api.EstimateRequest{Queries: queries})
	if err != nil {
		return nil, err
	}
	return resultsFromItems(resp.Results, len(queries))
}

// resultsFromItems converts wire estimate items into Estimator results,
// enforcing the one-item-per-query contract. Shared by the HTTP and XTP
// backends, so the two transports cannot drift in result shape.
func resultsFromItems(items []api.EstimateItem, nq int) ([]xseed.Result, error) {
	if len(items) != nq {
		return nil, fmt.Errorf("client: server returned %d results for %d queries", len(items), nq)
	}
	out := make([]xseed.Result, len(items))
	for i, it := range items {
		out[i] = xseed.Result{
			Query:    it.Query,
			Estimate: it.Estimate,
			Cached:   it.Cached,
		}
		if it.Error != nil {
			out[i].Err = it.Error
		}
	}
	return out, nil
}

// Feedback implements xseed.Estimator against the bound synopsis.
func (c *Client) Feedback(ctx context.Context, query string, actual float64) error {
	name, err := c.boundSynopsis()
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, synPath(name, "/feedback"), api.FeedbackRequest{Query: query, Actual: actual}, nil, false)
}

// FeedbackBatch implements xseed.Estimator against the bound synopsis: one
// POST carrying every observation, per-item error-or-nil in request order.
func (c *Client) FeedbackBatch(ctx context.Context, items []xseed.FeedbackObs) ([]error, error) {
	name, err := c.boundSynopsis()
	if err != nil {
		return nil, err
	}
	req := api.FeedbackBatchRequest{Items: make([]api.FeedbackItem, len(items))}
	for i, it := range items {
		req.Items[i] = api.FeedbackItem{Query: it.Query, Actual: it.Actual}
	}
	var resp api.FeedbackBatchResponse
	if err := c.do(ctx, http.MethodPost, synPath(name, "/feedback:batch"), req, &resp, false); err != nil {
		return nil, err
	}
	return feedbackErrsFromItems(resp.Results, len(items))
}

// feedbackErrsFromItems converts wire batch-feedback outcomes into the
// Estimator's []error shape, enforcing one outcome per item. Shared by the
// HTTP and XTP backends, so the transports cannot drift.
func feedbackErrsFromItems(results []api.FeedbackBatchItem, n int) ([]error, error) {
	if len(results) != n {
		return nil, fmt.Errorf("client: server returned %d results for %d feedback items", len(results), n)
	}
	errs := make([]error, n)
	for i, res := range results {
		if res.Error != nil {
			errs[i] = res.Error
		}
	}
	return errs, nil
}

func (c *Client) boundSynopsis() (string, error) {
	if c.synopsis == "" {
		return "", fmt.Errorf("client: no synopsis bound (use Synopsis(name) or WithSynopsis)")
	}
	return c.synopsis, nil
}

var _ xseed.Estimator = (*Client)(nil)
