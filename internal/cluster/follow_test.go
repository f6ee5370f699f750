package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xseed/api"
	"xseed/internal/logx"
)

// followTrace runs one Follower.Do against scripted per-attempt results,
// recording the node each attempt targeted and how often the ring was
// refreshed.
func followTrace(t *testing.T, attempts int, ring *Ring, results ...error) (targets []string, refreshes int, err error) {
	t.Helper()
	f := Follower{
		Attempts: attempts,
		Delay:    func(int) time.Duration { return 0 },
		Ring:     func() *Ring { return ring },
		Refresh:  func(context.Context) { refreshes++ },
	}
	owner := func() (api.RingNode, error) { return api.RingNode{ID: "a", HTTP: "a:1"}, nil }
	err = f.Do(context.Background(), owner, func(n api.RingNode) error {
		targets = append(targets, n.HTTP)
		if len(targets) > len(results) {
			return nil
		}
		return results[len(targets)-1]
	})
	return targets, refreshes, err
}

func TestFollowerFollowsHintOnce(t *testing.T) {
	ring := NewRing(api.Ring{Nodes: []api.RingNode{
		{ID: "a", HTTP: "a:1", State: api.RingStateActive},
		{ID: "b", HTTP: "b:1", XTP: "b:2", State: api.RingStateJoining},
	}})
	moved := api.NewMovedError("s", "http://b:1", 2)
	unavailable := api.Errorf(api.CodeUnavailable, "draining")
	// The hint steers exactly one attempt; a failure there falls back to
	// the ring owner, and every retryable failure refreshes the ring.
	targets, refreshes, err := followTrace(t, 5, ring, moved, unavailable, errors.New("connection reset"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(targets, ","), "a:1,b:1,a:1,a:1"; got != want {
		t.Fatalf("targets = %s, want %s", got, want)
	}
	if refreshes != 3 {
		t.Fatalf("refreshes = %d, want 3", refreshes)
	}
}

// TestFollowerIgnoresStaleHint: a node still on an older ring epoch than
// the caller's names a stale owner; the caller retries its own ring owner
// instead, which answers once it has applied the epoch.
func TestFollowerIgnoresStaleHint(t *testing.T) {
	ring := NewRing(api.Ring{Epoch: 3, Nodes: []api.RingNode{
		{ID: "a", HTTP: "a:1", State: api.RingStateActive},
		{ID: "b", HTTP: "b:1", State: api.RingStateActive},
	}})
	targets, refreshes, err := followTrace(t, 5, ring, api.NewMovedError("s", "http://b:1", 2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(targets, ","), "a:1,a:1"; got != want {
		t.Fatalf("targets = %s, want %s", got, want)
	}
	if refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", refreshes)
	}
}

func TestFollowerResolvesHintToRingEntry(t *testing.T) {
	ring := NewRing(api.Ring{Nodes: []api.RingNode{
		{ID: "b", HTTP: "b:1", XTP: "b:2", State: api.RingStateJoining},
	}})
	f := Follower{Ring: func() *Ring { return ring }}
	if n := f.resolve("http://b:1/"); n.ID != "b" || n.XTP != "b:2" {
		t.Fatalf("listed hint resolved to %+v, want b's ring entry", n)
	}
	if n := f.resolve("http://c:1"); n != (api.RingNode{HTTP: "c:1"}) {
		t.Fatalf("unlisted hint resolved to %+v, want the bare HTTP address", n)
	}
	f.Ring = func() *Ring { return nil }
	if n := f.resolve("http://b:1"); n != (api.RingNode{HTTP: "b:1"}) {
		t.Fatalf("hint without a ring resolved to %+v", n)
	}
}

func TestFollowerFinalAndExhausted(t *testing.T) {
	notFound := api.Errorf(api.CodeNotFound, "no such synopsis")
	targets, refreshes, err := followTrace(t, 5, nil, notFound)
	if !errors.Is(err, notFound) || len(targets) != 1 || refreshes != 0 {
		t.Fatalf("final error: err=%v targets=%v refreshes=%d, want one attempt and no refresh", err, targets, refreshes)
	}
	unavailable := api.Errorf(api.CodeUnavailable, "draining")
	targets, _, err = followTrace(t, 3, nil, unavailable, unavailable, unavailable)
	if !errors.Is(err, unavailable) || len(targets) != 3 {
		t.Fatalf("exhausted budget: err=%v targets=%v, want the last error after 3 attempts", err, targets)
	}
}

func TestFollowerCanceledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := Follower{
		Attempts: 3,
		Delay:    func(int) time.Duration { cancel(); return time.Hour },
		Ring:     func() *Ring { return nil },
	}
	err := f.Do(ctx, func() (api.RingNode, error) { return api.RingNode{}, errors.New("no active nodes") },
		func(api.RingNode) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRouterProxyFollowsMovedHint drives the router's proxy through the
// shared loop: the ring owner answers 421 naming another node, and the
// retry lands there with the same request body.
func TestRouterProxyFollowsMovedHint(t *testing.T) {
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Write(append([]byte("b:"), body...))
	}))
	defer b.Close()
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, api.NewMovedError("s", b.URL, 2))
	}))
	defer a.Close()
	rt := NewRouter(Config{}, logx.Discard())
	rt.ring.Store(NewRing(api.Ring{Epoch: 1, Nodes: []api.RingNode{
		{ID: "a", HTTP: strings.TrimPrefix(a.URL, "http://"), State: api.RingStateActive},
	}}))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/synopses/s/estimate", strings.NewReader(`{"query":"/a"}`)))
	if rec.Code != http.StatusOK || rec.Body.String() != `b:{"query":"/a"}` {
		t.Fatalf("proxied response = %d %q, want b's 200 echo", rec.Code, rec.Body.String())
	}
}
