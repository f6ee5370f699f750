package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xseed/api"
	"xseed/internal/store"
)

// healthMisses is how many consecutive failed health checks mark a node
// down (and trigger the failover epoch).
const healthMisses = 3

// joinGracePolls is how many poll intervals a recovered node stays in the
// joining state at minimum before zero observed lag can activate it —
// long enough for the actives' senders to notice the new target and start
// streaming, so "no lag reported" cannot be mistaken for "caught up".
const joinGracePolls = 3

// member is the router's dynamic view of one configured node.
type member struct {
	cfg    NodeConfig
	state  string // api.RingStateActive, api.RingStateJoining, or "down"
	misses int
	since  time.Time // when the current state was entered
}

// Router owns cluster membership — health checks, epoch bumps, join
// activation — and proxies client traffic to partition owners. It is
// deliberately not on the replication path and holds no synopsis state:
// a router restart loses nothing but a few seconds of routing.
type Router struct {
	cfg Config
	log *slog.Logger
	hc  *http.Client

	mu        sync.Mutex
	members   []*member
	epoch     uint64
	bootstrap bool // first health sweep activates every healthy node at once

	ring     atomic.Pointer[Ring]
	ringJSON atomic.Pointer[[]byte]

	follow Follower // the proxy's retry policy
}

// NewRouter builds a router over the configured topology. All nodes start
// down; the first health sweep forms the initial ring.
func NewRouter(cfg Config, lg *slog.Logger) *Router {
	rt := &Router{
		cfg:       cfg,
		log:       lg.With("role", "router"),
		hc:        &http.Client{Timeout: 2 * time.Second},
		bootstrap: true,
	}
	for _, n := range cfg.Nodes {
		rt.members = append(rt.members, &member{cfg: n, state: "down"})
	}
	// No Refresh: the health loop owns the ring, so a retry simply re-reads
	// whatever it last published.
	rt.follow = Follower{
		Attempts: proxyRetries,
		Delay:    func(int) time.Duration { return proxyBackoff },
		Ring:     rt.ring.Load,
	}
	return rt
}

// Run serves the router on cfg.Router and health-checks the nodes until
// ctx is canceled.
func (rt *Router) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", rt.cfg.Router)
	if err != nil {
		return fmt.Errorf("router listen: %w", err)
	}
	rt.log.Info("router listening", "addr", ln.Addr().String(), "nodes", len(rt.cfg.Nodes))
	go rt.healthLoop(ctx)
	srv := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	<-errc
	return nil
}

// healthLoop sweeps node health every poll interval and republishes the
// ring on membership changes.
func (rt *Router) healthLoop(ctx context.Context) {
	rt.sweep(ctx)
	t := time.NewTicker(rt.cfg.PollInterval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.sweep(ctx)
		}
	}
}

// sweep health-checks every node in parallel and applies the state
// machine: healthy down-nodes join (or bootstrap straight to active),
// joining nodes activate once replication lag toward them drains, and
// healthMisses consecutive failures take a node down.
func (rt *Router) sweep(ctx context.Context) {
	healthy := make([]bool, len(rt.cfg.Nodes))
	var wg sync.WaitGroup
	for i, n := range rt.cfg.Nodes {
		wg.Add(1)
		go func(i int, n NodeConfig) {
			defer wg.Done()
			healthy[i] = rt.checkHealth(ctx, n)
		}(i, n)
	}
	wg.Wait()

	rt.mu.Lock()
	changed := false
	now := time.Now()
	anyActive := false
	for _, m := range rt.members {
		if m.state == api.RingStateActive {
			anyActive = true
		}
	}
	for i, m := range rt.members {
		if !healthy[i] {
			m.misses++
			if m.misses >= healthMisses && m.state != "down" {
				rt.log.Warn("node down", "node", m.cfg.ID, "state", m.state)
				m.state, m.since, changed = "down", now, true
			}
			continue
		}
		m.misses = 0
		if m.state != "down" {
			continue
		}
		if rt.bootstrap || !anyActive {
			// Initial formation (or a fully-dead cluster recovering): there
			// is no one to catch up from, so activate directly.
			rt.log.Info("node active", "node", m.cfg.ID)
			m.state, m.since, changed = api.RingStateActive, now, true
			anyActive = true
		} else {
			rt.log.Info("node joining", "node", m.cfg.ID)
			m.state, m.since, changed = api.RingStateJoining, now, true
		}
	}
	rt.bootstrap = false
	joining := make([]*member, 0, 1)
	grace := time.Duration(joinGracePolls) * rt.cfg.PollInterval()
	for _, m := range rt.members {
		if m.state == api.RingStateJoining && now.Sub(m.since) >= grace {
			joining = append(joining, m)
		}
	}
	actives := make([]NodeConfig, 0, len(rt.members))
	for _, m := range rt.members {
		if m.state == api.RingStateActive {
			actives = append(actives, m.cfg)
		}
	}
	rt.mu.Unlock()

	// Lag probes run unlocked: they are network calls against the actives.
	promote := make([]*member, 0, len(joining))
	for _, m := range joining {
		if rt.caughtUp(ctx, actives, m.cfg.ID) {
			promote = append(promote, m)
		}
	}

	rt.mu.Lock()
	for _, m := range promote {
		if m.state == api.RingStateJoining {
			rt.log.Info("node active", "node", m.cfg.ID, "joinedFor", time.Since(m.since).Round(time.Millisecond))
			m.state, m.since, changed = api.RingStateActive, now, true
		}
	}
	if changed {
		rt.publishLocked()
	}
	rt.mu.Unlock()
}

func (rt *Router) checkHealth(ctx context.Context, n NodeConfig) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.HTTP+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// caughtUp reports whether no active node still observes replication lag
// toward target. An unreachable active vetoes promotion: its lag is
// unknown, and promoting a stale standby serves stale estimates.
func (rt *Router) caughtUp(ctx context.Context, actives []NodeConfig, target string) bool {
	for _, n := range actives {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.HTTP+"/v1/cluster/lag", nil)
		if err != nil {
			return false
		}
		resp, err := rt.hc.Do(req)
		if err != nil {
			return false
		}
		var lag api.ClusterLag
		derr := json.NewDecoder(resp.Body).Decode(&lag)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		for _, t := range lag.Targets {
			if t.Target == target && t.Bytes > 0 {
				return false
			}
		}
	}
	return true
}

// publishLocked rebuilds the ring from the current member states under a
// bumped epoch. Down nodes are excluded entirely; joining nodes appear so
// primaries replicate toward them, but take no ownership until active.
func (rt *Router) publishLocked() {
	rt.epoch++
	r := api.Ring{Epoch: rt.epoch, Replicas: rt.cfg.Replicas}
	for _, m := range rt.members {
		if m.state == "down" {
			continue
		}
		r.Nodes = append(r.Nodes, api.RingNode{
			ID:    m.cfg.ID,
			HTTP:  m.cfg.HTTP,
			XTP:   m.cfg.XTP,
			Repl:  m.cfg.Repl,
			State: m.state,
		})
	}
	ring := NewRing(r)
	rt.ring.Store(ring)
	data, err := json.Marshal(r)
	if err == nil {
		rt.ringJSON.Store(&data)
	}
	rt.log.Info("ring published", "epoch", r.Epoch, "members", len(r.Nodes))
}

// Ring returns the current ring (nil before the first health sweep
// completes).
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// Handler serves the router surface: the ring and health endpoints
// locally, everything else proxied to the owning node.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/ring", func(w http.ResponseWriter, r *http.Request) {
		data := rt.ringJSON.Load()
		if data == nil {
			api.WriteError(w, api.Errorf(api.CodeUnavailable, "ring not yet formed"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(*data)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/synopses", rt.proxyList)
	mux.HandleFunc("/", rt.proxy)
	return mux
}

// proxyRetries bounds one proxied request's attempts: transient failures
// (a dying node, a mid-rebalance moved) re-resolve the owner and retry,
// which covers the healthMisses×poll window a failover takes to detect.
const (
	proxyRetries = 40
	proxyBackoff = 100 * time.Millisecond
)

// maxProxyBody bounds a buffered request body (snapshot uploads are the
// largest legitimate payload; the node enforces its own limit too).
const maxProxyBody = 256 << 20

// proxy forwards one request to the node that owns its synopsis, following
// moved redirects and retrying around node failures (Follower.Do). The body
// is buffered once so every retry replays identical bytes.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
	if err != nil {
		api.WriteError(w, api.Errorf(api.CodeBadRequest, "read request body: %v", err))
		return
	}
	if len(body) > maxProxyBody {
		api.WriteError(w, api.Errorf(api.CodeBadRequest, "request body exceeds %d bytes", maxProxyBody))
		return
	}
	name := synopsisName(r, body)
	owner := func() (api.RingNode, error) {
		if n, ok := rt.route(name); ok {
			return n, nil
		}
		return api.RingNode{}, errors.New("no active nodes")
	}
	err = rt.follow.Do(r.Context(), owner, func(n api.RingNode) error {
		resp, err := rt.forward(r, "http://"+n.HTTP, body)
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusMisdirectedRequest, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// The node knows better than our default-tenant guess (or the ring
			// moved under us), or it is failing: a moved body's owner hint is
			// followed once, the rest fall back to the ring owner.
			respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode == http.StatusMisdirectedRequest {
				return api.DecodeErrorBody(resp.StatusCode, respBody)
			}
			return api.Errorf(api.CodeUnavailable, "%s from %s", resp.Status, n.HTTP)
		}
		copyResponse(w, resp)
		return nil
	})
	switch {
	case err == nil:
	case r.Context().Err() != nil:
		api.WriteError(w, api.WrapError(r.Context().Err(), api.CodeCanceled))
	default:
		api.WriteError(w, api.Errorf(api.CodeUnavailable, "no node could serve the request: %v", err))
	}
}

// route picks the first-guess node for a request: the ring owner of the
// default tenant's key for synopsis routes (a tenanted request a node
// re-keys answers with a moved hint we follow), any active node otherwise.
func (rt *Router) route(name string) (api.RingNode, bool) {
	ring := rt.ring.Load()
	if ring == nil {
		return api.RingNode{}, false
	}
	if name != "" {
		return ring.Owner(store.Key(store.DefaultTenant, name))
	}
	for _, n := range ring.Nodes {
		if n.State == api.RingStateActive {
			return n, true
		}
	}
	return api.RingNode{}, false
}

func (rt *Router) forward(r *http.Request, base string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.Header.Set("X-Forwarded-For", r.RemoteAddr)
	return rt.hc.Do(req)
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxyList fans GET /v1/synopses out to every active node and merges the
// partitions' listings. Nodes list only the synopses they own, so the
// merge is a concatenation, not a dedup.
func (rt *Router) proxyList(w http.ResponseWriter, r *http.Request) {
	ring := rt.ring.Load()
	if ring == nil {
		api.WriteError(w, api.Errorf(api.CodeUnavailable, "ring not yet formed"))
		return
	}
	merged := []api.SynopsisInfo{}
	for _, n := range ring.Nodes {
		if n.State != api.RingStateActive {
			continue
		}
		resp, err := rt.forward(r, "http://"+n.HTTP, nil)
		if err != nil {
			api.WriteError(w, api.Errorf(api.CodeUnavailable, "list from %s: %v", n.ID, err))
			return
		}
		respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		resp.Body.Close()
		if rerr != nil {
			api.WriteError(w, api.Errorf(api.CodeUnavailable, "list from %s: %v", n.ID, rerr))
			return
		}
		if resp.StatusCode != http.StatusOK {
			copyResponseBytes(w, resp, respBody)
			return
		}
		var part []api.SynopsisInfo
		if err := json.Unmarshal(respBody, &part); err != nil {
			api.WriteError(w, api.Errorf(api.CodeInternal, "list from %s: %v", n.ID, err))
			return
		}
		merged = append(merged, part...)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(merged)
}

func copyResponseBytes(w http.ResponseWriter, resp *http.Response, body []byte) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// synopsisName extracts the synopsis a request addresses: the {name} path
// segment of /v1/synopses/{name}/..., or the name field of a create body.
// Empty means the route is not synopsis-scoped.
func synopsisName(r *http.Request, body []byte) string {
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/synopses/"); ok {
		seg, _, _ := strings.Cut(rest, "/")
		if name, err := url.PathUnescape(seg); err == nil {
			return name
		}
		return seg
	}
	if r.Method == http.MethodPost && r.URL.Path == "/v1/synopses" {
		var peek struct {
			Name string `json:"name"`
		}
		json.Unmarshal(body, &peek)
		return peek.Name
	}
	return ""
}
