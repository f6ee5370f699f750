package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/cluster"
	"xseed/internal/store"
)

// Cluster is the partition-aware client for a distributed xseed
// deployment: it fetches the partition ring from a seed (the router or
// any node), hashes each synopsis to its owning node exactly as the
// servers do, and talks to owners directly — the router never sits on
// the data path. On a typed moved error (an ownership flip mid-call,
// e.g. during a rebalance or failover) it follows the error's owner
// hint, refreshes the ring, and retries with the same jittered, capped
// backoff schedule as Client — so a rebalance costs a redirect, not a
// failure.
//
//	cl, _ := client.NewCluster([]string{"http://10.0.0.5:7070"},
//	    client.WithRetry(5, 100*time.Millisecond))
//	defer cl.Close()
//	res, err := cl.Synopsis("auction").EstimateBatch(ctx, queries)
//
// Estimates ride HTTP by default; WithXTPEstimates switches them to each
// owner's xtp listener (one pipelined connection per node). All other
// calls stay on HTTP. A Cluster is safe for concurrent use.
type Cluster struct {
	seeds  []string
	proto  *Client          // carries the shared options; never issues requests itself
	follow cluster.Follower // the retry policy every routed call runs under

	mu   sync.Mutex
	ring *cluster.Ring      // nil until the first successful fetch
	cs   map[string]*Client // per-node HTTP clients, keyed by base URL
	xs   map[string]*XTP    // per-node xtp clients, keyed by addr
}

// NewCluster builds a cluster client from one or more seed base URLs —
// the router's address and/or any node addresses; every node serves the
// same ring. Options are the plain Client options: WithToken,
// WithTenantID (required for routing when the token maps to a non-default
// tenant), WithRetry/WithRetryCap, WithHTTPClient, WithXTPEstimates.
// The ring is fetched lazily on first use; call Refresh to fail fast.
func NewCluster(seeds []string, opts ...Option) (*Cluster, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("client: NewCluster needs at least one seed URL")
	}
	proto := &Client{hc: &http.Client{}, backoff: 100 * time.Millisecond}
	for _, o := range opts {
		o(proto)
	}
	cl := &Cluster{
		proto: proto,
		cs:    make(map[string]*Client),
		xs:    make(map[string]*XTP),
	}
	for _, s := range seeds {
		if !strings.Contains(s, "://") {
			s = "http://" + s
		}
		cl.seeds = append(cl.seeds, strings.TrimRight(s, "/"))
	}
	cl.follow = cluster.Follower{
		Attempts: 1 + proto.retries,
		Delay: func(n int) time.Duration {
			return retryDelay(n, proto.backoff, proto.backoffCap, jitter)
		},
		Ring:    cl.view,
		Refresh: func(ctx context.Context) { cl.Refresh(ctx) },
	}
	return cl, nil
}

// Close releases every per-node xtp connection. HTTP clients share the
// standard pooled transport and need no teardown.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	xs := cl.xs
	cl.xs = make(map[string]*XTP)
	cl.mu.Unlock()
	var first error
	for _, x := range xs {
		if err := x.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Refresh fetches the partition ring from the seeds, keeping the highest
// epoch seen. It is called automatically on first use and after moved /
// unavailable errors; call it directly to fail fast at startup.
func (cl *Cluster) Refresh(ctx context.Context) error {
	var lastErr error
	for _, seed := range cl.seeds {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, seed+"/v1/cluster/ring", nil)
		if err != nil {
			lastErr = err
			continue
		}
		if cl.proto.token != "" {
			req.Header.Set("Authorization", "Bearer "+cl.proto.token)
		}
		resp, err := cl.proto.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = api.DecodeErrorBody(resp.StatusCode, data)
			continue
		}
		var r api.Ring
		if err := json.Unmarshal(data, &r); err != nil {
			lastErr = fmt.Errorf("client: decode ring from %s: %w", seed, err)
			continue
		}
		cl.adoptRing(r)
	}
	if cl.view() != nil {
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: no seed returned a ring")
	}
	return lastErr
}

// adoptRing installs r unless a newer epoch is already held — seeds are
// polled in order and a lagging node must not roll the view back.
func (cl *Cluster) adoptRing(r api.Ring) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.ring != nil && r.Epoch <= cl.ring.Epoch {
		return
	}
	cl.ring = cluster.NewRing(r)
}

// Ring returns the client's current view of the partition ring; ok is
// false before the first successful fetch.
func (cl *Cluster) Ring() (api.Ring, bool) {
	if r := cl.view(); r != nil {
		return r.Ring, true
	}
	return api.Ring{}, false
}

// view returns the held ring, nil before the first successful fetch.
func (cl *Cluster) view() *cluster.Ring {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.ring
}

// fetched returns the held ring, fetching it first if none is held yet.
func (cl *Cluster) fetched(ctx context.Context) (*cluster.Ring, error) {
	if r := cl.view(); r != nil {
		return r, nil
	}
	if err := cl.Refresh(ctx); err != nil {
		return nil, err
	}
	return cl.view(), nil
}

// routingKey is the store key ownership hashes: the configured tenant's
// namespace, or the untenanted default.
func (cl *Cluster) routingKey(name string) string {
	t := cl.proto.tenant
	if t == "" {
		t = store.DefaultTenant
	}
	return store.Key(t, name)
}

// owner resolves name's owning node under the current ring, fetching the
// ring first if none is held yet.
func (cl *Cluster) owner(ctx context.Context, name string) (api.RingNode, error) {
	r, err := cl.fetched(ctx)
	if err != nil {
		return api.RingNode{}, err
	}
	n, ok := r.Owner(cl.routingKey(name))
	if !ok {
		return api.RingNode{}, api.Errorf(api.CodeUnavailable, "cluster has no active nodes")
	}
	return n, nil
}

// nodeClient returns the cached HTTP client for a node base URL. The
// per-node clients never retry internally: the Cluster loop owns
// retries, because a retry must be allowed to re-route.
func (cl *Cluster) nodeClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	cl.mu.Lock()
	defer cl.mu.Unlock()
	c, ok := cl.cs[base]
	if !ok {
		bound := *cl.proto
		bound.base = base
		bound.retries = 0
		c = &bound
		cl.cs[base] = c
	}
	return c
}

// nodeXTP returns the cached xtp client for a node's xtp listener,
// dialing on first use.
func (cl *Cluster) nodeXTP(n api.RingNode) (*XTP, error) {
	addr := n.XTP
	if addr == "" {
		return nil, api.Errorf(api.CodeUnavailable, "node %s serves no xtp listener", n.HTTP)
	}
	cl.mu.Lock()
	x, ok := cl.xs[addr]
	cl.mu.Unlock()
	if ok {
		return x, nil
	}
	var opts []XTPOption
	if cl.proto.token != "" {
		opts = append(opts, WithXTPToken(cl.proto.token))
	}
	x, err := DialXTP(addr, opts...)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	if prev, ok := cl.xs[addr]; ok {
		cl.mu.Unlock()
		x.Close()
		return prev, nil
	}
	cl.xs[addr] = x
	cl.mu.Unlock()
	return x, nil
}

// doRouted runs fn against the HTTP client of name's owner under the
// shared moved-following loop (cluster.Follower.Do): a moved error
// redirects the next attempt to the node it names, unavailable and
// transport errors re-resolve the owner, each after a ring refresh and the
// same jittered, capped backoff as Client. Other typed errors (parse
// errors, not found, unauthorized) return immediately.
func (cl *Cluster) doRouted(ctx context.Context, name string, fn func(c *Client) error) error {
	return cl.follow.Do(ctx, cl.ownerOf(ctx, name), func(n api.RingNode) error {
		return fn(cl.nodeClient(n.HTTP))
	})
}

// ownerOf binds owner to one call's name for cluster.Follower.Do.
func (cl *Cluster) ownerOf(ctx context.Context, name string) func() (api.RingNode, error) {
	return func() (api.RingNode, error) { return cl.owner(ctx, name) }
}

// Health probes any reachable node (the first active ring member).
func (cl *Cluster) Health(ctx context.Context) error {
	return cl.doRouted(ctx, "", func(c *Client) error { return c.Health(ctx) })
}

// Create registers a synopsis on its owning node, routed by the
// request's name.
func (cl *Cluster) Create(ctx context.Context, req api.CreateRequest) (api.SynopsisInfo, error) {
	var info api.SynopsisInfo
	err := cl.doRouted(ctx, req.Name, func(c *Client) error {
		var err error
		info, err = c.Create(ctx, req)
		return err
	})
	return info, err
}

// Get returns one synopsis's stats from its owner.
func (cl *Cluster) Get(ctx context.Context, name string) (api.SynopsisInfo, error) {
	var info api.SynopsisInfo
	err := cl.doRouted(ctx, name, func(c *Client) error {
		var err error
		info, err = c.Get(ctx, name)
		return err
	})
	return info, err
}

// Delete removes the synopsis from its owner (replication propagates the
// delete to standbys).
func (cl *Cluster) Delete(ctx context.Context, name string) error {
	return cl.doRouted(ctx, name, func(c *Client) error { return c.Delete(ctx, name) })
}

// List merges every active node's synopsis listing into one sorted
// slice. Nodes list only the synopses they own (standby replicas are
// hidden), so the merge is duplicate-free by construction.
func (cl *Cluster) List(ctx context.Context) ([]api.SynopsisInfo, error) {
	r, err := cl.fetched(ctx)
	if err != nil {
		return nil, err
	}
	var out []api.SynopsisInfo
	for _, n := range r.Nodes {
		if n.State != api.RingStateActive {
			continue
		}
		part, err := cl.nodeClient(n.HTTP).List(ctx)
		if err != nil {
			return nil, fmt.Errorf("client: list from node %s: %w", n.ID, err)
		}
		out = append(out, part...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Estimate runs one estimate request against the named synopsis on its
// owning node, re-routing on moved per doRouted.
func (cl *Cluster) Estimate(ctx context.Context, name string, req api.EstimateRequest) (api.EstimateResponse, error) {
	var resp api.EstimateResponse
	err := cl.doRouted(ctx, name, func(c *Client) error {
		var err error
		resp, err = c.Estimate(ctx, name, req)
		return err
	})
	return resp, err
}

// Synopsis binds the cluster client to a synopsis name. The binding
// implements xseed.Estimator, so an optimizer built against the
// interface runs unchanged against a sharded deployment.
func (cl *Cluster) Synopsis(name string) *ClusterSynopsis {
	return &ClusterSynopsis{cl: cl, name: name}
}

// ClusterSynopsis is a Cluster bound to one synopsis: the partition-aware
// xseed.Estimator.
type ClusterSynopsis struct {
	cl   *Cluster
	name string
}

// EstimateBatch implements xseed.Estimator: the batch goes whole to the
// synopsis's owning node (a batch addresses one synopsis, so it never
// splits), over xtp when the cluster was built WithXTPEstimates, HTTP
// otherwise. Moved redirects re-route per doRouted either way: a hint
// resolves to the owner's ring entry, so an xtp estimate follows it to the
// owner's xtp listener.
func (s *ClusterSynopsis) EstimateBatch(ctx context.Context, queries []string) ([]xseed.Result, error) {
	var out []xseed.Result
	err := s.cl.follow.Do(ctx, s.cl.ownerOf(ctx, s.name), func(n api.RingNode) error {
		if s.cl.proto.xtpEst {
			x, err := s.cl.nodeXTP(n)
			if err == nil {
				out, err = x.Synopsis(s.name).EstimateBatch(ctx, queries)
			}
			return err
		}
		resp, err := s.cl.nodeClient(n.HTTP).Estimate(ctx, s.name, api.EstimateRequest{Queries: queries})
		if err != nil {
			return err
		}
		out, err = resultsFromItems(resp.Results, len(queries))
		return err
	})
	return out, err
}

// Feedback implements xseed.Estimator against the owning node, over HTTP
// (feedback is not latency-critical enough to justify the xtp window
// machinery per node).
func (s *ClusterSynopsis) Feedback(ctx context.Context, query string, actual float64) error {
	return s.cl.doRouted(ctx, s.name, func(c *Client) error {
		return c.do(ctx, http.MethodPost, synPath(s.name, "/feedback"),
			api.FeedbackRequest{Query: query, Actual: actual}, nil, false)
	})
}

// FeedbackBatch implements xseed.Estimator against the synopsis owner; the
// whole batch routes to one node so it rides a single group-commit flush.
func (s *ClusterSynopsis) FeedbackBatch(ctx context.Context, items []xseed.FeedbackObs) ([]error, error) {
	req := api.FeedbackBatchRequest{Items: make([]api.FeedbackItem, len(items))}
	for i, it := range items {
		req.Items[i] = api.FeedbackItem{Query: it.Query, Actual: it.Actual}
	}
	var resp api.FeedbackBatchResponse
	err := s.cl.doRouted(ctx, s.name, func(c *Client) error {
		return c.do(ctx, http.MethodPost, synPath(s.name, "/feedback:batch"), req, &resp, false)
	})
	if err != nil {
		return nil, err
	}
	return feedbackErrsFromItems(resp.Results, len(items))
}

var _ xseed.Estimator = (*ClusterSynopsis)(nil)
