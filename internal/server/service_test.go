package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xseed/api"
	"xseed/internal/cluster"
	"xseed/internal/logx"
	"xseed/internal/store"
	"xseed/internal/wire"
)

// TestMovedChargesNoToken pins the admission order on both transports:
// ownership is checked before the rate charge, so a request for a synopsis
// another node owns answers moved and leaves the tenant's bucket whole.
// Each tenant's bucket holds one token and never refills during the test.
func TestMovedChargesNoToken(t *testing.T) {
	ccfg := cluster.Config{
		Replicas: 1,
		Router:   "127.0.0.1:1", // never dialed: the ring is installed directly
		Nodes: []cluster.NodeConfig{
			{ID: "a", HTTP: "127.0.0.1:1", Repl: "127.0.0.1:1"},
			{ID: "b", HTTP: "127.0.0.2:1", Repl: "127.0.0.2:1"},
		},
	}
	s, err := New(Config{CacheCapacity: 64, StoreDir: t.TempDir(), Logger: logx.Discard(),
		XTPAddr: "127.0.0.1:0", // never bound: the test serves s.xtp itself
		Tenants: []TenantConfig{
			{ID: "h", Token: "h-tok", RatePerSec: 0.0001, Burst: 1},
			{ID: "x", Token: "x-tok", RatePerSec: 0.0001, Burst: 1},
		},
		Cluster: &ClusterOptions{Config: ccfg, NodeID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ring := api.Ring{Epoch: 1, Replicas: 1, Nodes: []api.RingNode{
		{ID: "a", HTTP: "127.0.0.1:1", Repl: "127.0.0.1:1", State: api.RingStateActive},
		{ID: "b", HTTP: "127.0.0.2:1", Repl: "127.0.0.2:1", State: api.RingStateActive},
	}}
	s.cl.SetRing(ring)
	// ownedBy finds a name whose key, in tenant ten's namespace, node id owns.
	ownedBy := func(ten, id string) string {
		r := cluster.NewRing(ring)
		for i := 0; ; i++ {
			name := fmt.Sprintf("m-%d", i)
			if n, _ := r.Owner(store.Key(ten, name)); n.ID == id {
				return name
			}
		}
	}

	t.Run("http", func(t *testing.T) {
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		moved, local := ownedBy("h", "b"), ownedBy("h", "a")
		post := func(path, body string) int {
			t.Helper()
			req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Authorization", "Bearer h-tok")
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		for _, req := range []struct{ path, body string }{
			{"/estimate", `{"query":"/a"}`},
			{"/estimate", `{"query":"/a"}`},
			{"/feedback", `{"query":"/a","actual":1}`},
		} {
			if st := post("/v1/synopses/"+moved+req.path, req.body); st != http.StatusMisdirectedRequest {
				t.Fatalf("moved %s: status %d, want 421", req.path, st)
			}
		}
		// Two events against a one-token bucket: only the ownership answer
		// can come back, never the rate limit's.
		if st, _ := postBatch(t, ts, "h-tok", moved, []api.FeedbackItem{{Query: "/a", Actual: 1}, {Query: "/b", Actual: 2}}); st != http.StatusMisdirectedRequest {
			t.Fatalf("moved batch: status %d, want 421", st)
		}
		// The bucket's one token is still there: the first local request
		// spends it (on a synopsis that does not exist), the second is refused.
		if st := post("/v1/synopses/"+local+"/estimate", `{"query":"/a"}`); st != http.StatusNotFound {
			t.Fatalf("first local estimate: status %d, want 404 (a moved request spent the token)", st)
		}
		if st := post("/v1/synopses/"+local+"/estimate", `{"query":"/a"}`); st != http.StatusTooManyRequests {
			t.Fatalf("second local estimate: status %d, want 429", st)
		}
	})

	t.Run("xtp", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.xtp.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.xtp.Shutdown(ctx)
		})
		_, r, w := dialRaw(t, ln.Addr().String())
		moved, local := ownedBy("x", "b"), ownedBy("x", "a")
		// roundTrip sends one request and returns the code of its Error frame.
		roundTrip := func(ft wire.FrameType, payload []byte) string {
			t.Helper()
			if err := w.WriteFrame(ft, 1, payload); err != nil {
				t.Fatal(err)
			}
			f, err := r.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if f.Type != wire.FrameError {
				return f.Type.String()
			}
			ae, err := wire.DecodeError(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return ae.Code
		}
		if got := roundTrip(wire.FrameAuthReq, wire.AppendAuthReq(nil, "x-tok")); got != "AuthResp" {
			t.Fatalf("auth answered %s", got)
		}
		for _, req := range []struct {
			ft      wire.FrameType
			payload []byte
		}{
			{wire.FrameEstimateReq, wire.AppendEstimateReq(nil, moved, []string{"/a"}, false)},
			{wire.FrameEstimateReq, wire.AppendEstimateReq(nil, moved, []string{"/a"}, false)},
			{wire.FrameFeedbackReq, wire.AppendFeedbackReq(nil, moved, "/a", 1)},
			{wire.FrameFeedbackBatchReq, wire.AppendFeedbackBatchReq(nil, moved,
				[]api.FeedbackItem{{Query: "/a", Actual: 1}, {Query: "/b", Actual: 2}})},
		} {
			if got := roundTrip(req.ft, req.payload); got != api.CodeMoved {
				t.Fatalf("moved %s answered %s, want %s", req.ft, got, api.CodeMoved)
			}
		}
		est := wire.AppendEstimateReq(nil, local, []string{"/a"}, false)
		if got := roundTrip(wire.FrameEstimateReq, est); got != api.CodeNotFound {
			t.Fatalf("first local estimate answered %s, want %s (a moved request spent the token)", got, api.CodeNotFound)
		}
		if got := roundTrip(wire.FrameEstimateReq, est); got != api.CodeQuotaExceeded {
			t.Fatalf("second local estimate answered %s, want %s", got, api.CodeQuotaExceeded)
		}
	})
}
