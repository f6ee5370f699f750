package client

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xseed/api"
	"xseed/internal/wire"
)

// ringSeed serves /v1/cluster/ring from a swappable api.Ring and counts
// fetches.
type ringSeed struct {
	srv     *httptest.Server
	ring    atomic.Pointer[api.Ring]
	fetches atomic.Int64
}

func newRingSeed(t *testing.T, r api.Ring) *ringSeed {
	t.Helper()
	s := &ringSeed{}
	s.ring.Store(&r)
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/cluster/ring" {
			http.NotFound(w, req)
			return
		}
		s.fetches.Add(1)
		json.NewEncoder(w).Encode(s.ring.Load())
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *ringSeed) set(r api.Ring) { s.ring.Store(&r) }

// hostport strips the scheme from an httptest server URL, the way node
// addresses appear in a ring.
func hostport(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

// synServer is one fake node: it answers GET /v1/synopses/<name> with a
// fixed behavior and counts hits.
func synServer(t *testing.T, handler http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		handler(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func serveInfo(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.SynopsisInfo{Name: name})
	}
}

func serveMoved(name, owner string, epoch uint64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, api.NewMovedError(name, owner, epoch))
	}
}

func activeRing(epoch uint64, nodes ...api.RingNode) api.Ring {
	return api.Ring{Epoch: epoch, Nodes: nodes}
}

func node(id, http string) api.RingNode {
	return api.RingNode{ID: id, HTTP: http, State: api.RingStateActive}
}

func TestClusterRoutesToOwner(t *testing.T) {
	a, hits := synServer(t, serveInfo("s"))
	seed := newRingSeed(t, activeRing(1, node("a", hostport(a))))
	cl, err := NewCluster([]string{seed.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl.Get(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "s" || hits.Load() != 1 {
		t.Fatalf("info=%+v hits=%d", info, hits.Load())
	}
	if r, ok := cl.Ring(); !ok || r.Epoch != 1 {
		t.Fatalf("ring = %+v, %v", r, ok)
	}
}

func TestClusterFollowsMovedHint(t *testing.T) {
	// The ring names only A, but ownership flipped to B mid-rebalance: A
	// answers moved with B's address. One retry lands on B.
	b, bHits := synServer(t, serveInfo("s"))
	a, aHits := synServer(t, serveMoved("s", b.URL, 2))
	seed := newRingSeed(t, activeRing(1, node("a", hostport(a))))
	cl, err := NewCluster([]string{seed.srv.URL},
		WithRetry(3, time.Millisecond), WithRetryCap(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl.Get(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "s" {
		t.Fatalf("info = %+v", info)
	}
	if aHits.Load() != 1 || bHits.Load() != 1 {
		t.Fatalf("hits: a=%d b=%d, want one each", aHits.Load(), bHits.Load())
	}
}

func TestClusterMovedWithoutHintRefreshesRing(t *testing.T) {
	// A answers moved with no owner hint (the rebalance window where the
	// server only knows it is not the owner). The client must fall back to
	// a ring refresh — which now names B — instead of hammering A.
	b, bHits := synServer(t, serveInfo("s"))
	var a *httptest.Server
	var seed *ringSeed
	a, aHits := synServer(t, func(w http.ResponseWriter, r *http.Request) {
		// Next refresh sees epoch 2 naming B alone.
		seed.set(activeRing(2, node("b", hostport(b))))
		api.WriteError(w, &api.Error{Code: api.CodeMoved, Msg: "not the owner"})
	})
	seed = newRingSeed(t, activeRing(1, node("a", hostport(a))))
	cl, err := NewCluster([]string{seed.srv.URL},
		WithRetry(3, time.Millisecond), WithRetryCap(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(context.Background(), "s"); err != nil {
		t.Fatal(err)
	}
	if aHits.Load() != 1 || bHits.Load() != 1 {
		t.Fatalf("hits: a=%d b=%d, want one each", aHits.Load(), bHits.Load())
	}
	if r, _ := cl.Ring(); r.Epoch != 2 {
		t.Fatalf("ring epoch = %d, want refreshed to 2", r.Epoch)
	}
}

// TestClusterRedirectStormDesync pins the desync behavior: two nodes
// each claim the other owns the synopsis (a pathological rebalance
// window). The client must bounce between them at most once per retry —
// jittered, capped backoff between hops — and surface the typed moved
// error when the budget runs out, never loop unboundedly.
func TestClusterRedirectStormDesync(t *testing.T) {
	var aURL, bURL string
	a, aHits := synServer(t, func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, api.NewMovedError("s", bURL, 7))
	})
	b, bHits := synServer(t, func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, api.NewMovedError("s", aURL, 7))
	})
	aURL, bURL = a.URL, b.URL
	seed := newRingSeed(t, activeRing(1, node("a", hostport(a)), node("b", hostport(b))))

	const retries = 4
	cl, err := NewCluster([]string{seed.srv.URL},
		WithRetry(retries, time.Millisecond), WithRetryCap(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = cl.Get(context.Background(), "s")
	if err == nil {
		t.Fatal("storm converged on a success that no node would serve")
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeMoved {
		t.Fatalf("err = %v, want typed %s", err, api.CodeMoved)
	}
	total := aHits.Load() + bHits.Load()
	if want := int64(retries + 1); total != want {
		t.Fatalf("storm cost %d node requests, want exactly %d (one per attempt)", total, want)
	}
	if aHits.Load() == 0 || bHits.Load() == 0 {
		t.Fatalf("client did not alternate: a=%d b=%d", aHits.Load(), bHits.Load())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("storm took %v — backoff not capped", elapsed)
	}
	// Every redirect refreshed the ring: the initial fetch plus one per
	// moved response.
	if f := seed.fetches.Load(); f < int64(retries) {
		t.Fatalf("ring fetched %d times during the storm, want at least %d", f, retries)
	}
}

func TestClusterRetriesDeadNodeViaRefresh(t *testing.T) {
	// The ring names a dead node; the request fails at the transport. The
	// retry refreshes the ring — which now names a live node — and
	// succeeds. This is the client half of failover.
	live, liveHits := synServer(t, serveInfo("s"))
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadAddr := hostport(dead)
	dead.Close()

	seed := newRingSeed(t, activeRing(1, node("a", deadAddr)))
	cl, err := NewCluster([]string{seed.srv.URL},
		WithRetry(3, time.Millisecond), WithRetryCap(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Promote the live node at epoch 2; the first refresh after the
	// transport error adopts it.
	seed.set(activeRing(2, node("b", hostport(live))))
	if _, err := cl.Get(context.Background(), "s"); err != nil {
		t.Fatal(err)
	}
	if liveHits.Load() != 1 {
		t.Fatalf("live node hits = %d, want 1", liveHits.Load())
	}
}

func TestClusterTenantChangesRouting(t *testing.T) {
	// Routing hashes the (tenant, name) store key, so the same name may
	// route differently per tenant — assert the key actually varies.
	cl, err := NewCluster([]string{"http://127.0.0.1:1"}, WithTenantID("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.routingKey("s"); got != "acme\x00s" {
		t.Fatalf("routingKey = %q", got)
	}
	cl2, _ := NewCluster([]string{"http://127.0.0.1:1"})
	if got := cl2.routingKey("s"); got != "s" {
		t.Fatalf("default routingKey = %q", got)
	}
}

// movedXTPNode is a fake xtp listener that refuses every request with a
// typed moved error naming owner (an HTTP base URL), counting refusals.
func movedXTPNode(t *testing.T, owner string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var hits atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if _, err := wire.ReadHandshake(c); err != nil {
					return
				}
				if err := wire.WriteHandshake(c, wire.Version); err != nil {
					return
				}
				r, w := wire.NewReader(c), wire.NewWriter(c)
				for {
					f, err := r.ReadFrame()
					if err != nil {
						return
					}
					hits.Add(1)
					w.WriteFrame(wire.FrameError, f.Corr, wire.AppendError(nil, api.NewMovedError("fig2", owner, 2)))
				}
			}()
		}
	}()
	return ln.Addr().String(), &hits
}

// TestClusterXTPFollowsMovedHint: with WithXTPEstimates, a moved hint — an
// HTTP base URL — resolves to the owner's ring entry, so the retry lands on
// the owner's xtp listener rather than on its HTTP address.
func TestClusterXTPFollowsMovedHint(t *testing.T) {
	_, bXTP := newXTPBackend(t, nil)
	const bHTTP = "127.0.0.1:1" // never dialed: estimates ride xtp
	aXTP, aHits := movedXTPNode(t, "http://"+bHTTP)
	// b is still joining, so a owns every key by the hash; but ownership
	// has flipped to b, and the ring already lists b's listeners.
	seed := newRingSeed(t, api.Ring{Epoch: 1, Nodes: []api.RingNode{
		{ID: "a", HTTP: "127.0.0.1:2", XTP: aXTP, State: api.RingStateActive},
		{ID: "b", HTTP: bHTTP, XTP: bXTP, State: api.RingStateJoining},
	}})
	cl, err := NewCluster([]string{seed.srv.URL}, WithXTPEstimates(),
		WithRetry(3, time.Millisecond), WithRetryCap(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Synopsis("fig2").EstimateBatch(context.Background(), []string{"/a/c/s"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != nil || res[0].Estimate <= 0 {
		t.Fatalf("results = %+v", res)
	}
	if aHits.Load() != 1 {
		t.Fatalf("refusing node saw %d requests, want 1", aHits.Load())
	}
}
