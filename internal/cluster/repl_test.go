package cluster

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/fixtures"
	"xseed/internal/logx"
	"xseed/internal/obs"
	"xseed/internal/store"
)

// storeHost adapts one store (plus an in-memory synopsis map, standing in
// for the registry) to the Host interface — both ends of a replication
// loopback use it.
type storeHost struct {
	st *store.Store

	mu       sync.Mutex
	syns     map[string]*xseed.Synopsis
	primarry map[string]bool
}

func newStoreHost(t testing.TB, dir string) *storeHost {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &storeHost{st: st, syns: make(map[string]*xseed.Synopsis), primarry: make(map[string]bool)}
}

func (h *storeHost) PrimaryKeys() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for k, p := range h.primarry {
		if p {
			out = append(out, k)
		}
	}
	return out
}

func (h *storeHost) AllKeys() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for k := range h.syns {
		out = append(out, k)
	}
	return out
}

func (h *storeHost) SetPrimary(key string, primary bool) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.primarry[key] == primary {
		return false
	}
	h.primarry[key] = primary
	return true
}

func (h *storeHost) Tail(key string) (uint64, int64, bool) { return h.st.Tail(key) }
func (h *storeHost) ReadSegment(key string, seq uint64, off, max int64) ([]byte, error) {
	return h.st.ReadSegment(key, seq, off, max)
}
func (h *storeHost) ExportBase(key string) (store.BaseExport, error) { return h.st.ExportBase(key) }

func (h *storeHost) ImportBase(key string, seq uint64, meta store.BaseMeta, snapshot []byte) error {
	l, err := h.st.ImportBase(key, seq, meta, snapshot)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.syns[key] = l.Syn
	h.mu.Unlock()
	return nil
}

func (h *storeHost) ApplySegment(key string, seq uint64, off int64, data []byte) (int64, error) {
	newSize, records, err := h.st.AppendSegment(key, seq, off, data)
	if err != nil {
		return 0, err
	}
	if records == 0 {
		return newSize, nil
	}
	h.mu.Lock()
	syn := h.syns[key]
	h.mu.Unlock()
	if syn == nil {
		return 0, store.ErrSeqMismatch
	}
	if _, err := store.ReplaySegment(syn, data); err != nil {
		return 0, err
	}
	return newSize, nil
}

func (h *storeHost) DeleteReplica(key string) error {
	h.mu.Lock()
	delete(h.syns, key)
	h.mu.Unlock()
	return h.st.Remove(key)
}

func buildFig2(t testing.TB) *xseed.Synopsis {
	t.Helper()
	d, err := xseed.ParseXMLString(fixtures.PaperFigure2)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := xseed.BuildSynopsis(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return syn
}

func feedback(t testing.TB, h *storeHost, key string, syn *xseed.Synopsis, query string, actual float64) {
	t.Helper()
	q, err := xseed.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	_, delta, applied := syn.FeedbackQueryDeltaDeferred(q, actual)
	syn.Publish()
	if !applied {
		t.Fatalf("feedback %s not applied", query)
	}
	if err := h.st.AppendFeedback(key, delta); err != nil {
		t.Fatal(err)
	}
}

// replPair wires a sender directly to a ReplServer over a loopback TCP
// listener and returns both hosts plus the sender (tests drive ticks by
// hand — no loops, no sleeps).
func replPair(t *testing.T, key string) (primary, standby *storeHost, s *sender) {
	t.Helper()
	primary = newStoreHost(t, t.TempDir())
	standby = newStoreHost(t, t.TempDir())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := NewReplServer("b", standby, nil, logx.Discard())
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go rs.Serve(ctx, ln)

	target := api.RingNode{ID: "b", Repl: ln.Addr().String(), State: api.RingStateActive}
	s = newSender("a", target, primary, func() []string { return []string{key} },
		time.Hour, t.TempDir(), NewMetrics(obs.Disabled), logx.Discard())
	t.Cleanup(s.disconnect)
	return primary, standby, s
}

// segmentBytes reads the whole delta log of key from a store via the
// replication read path.
func segmentBytes(t *testing.T, h *storeHost, key string) (uint64, []byte) {
	t.Helper()
	seq, size, ok := h.st.Tail(key)
	if !ok {
		t.Fatalf("no tail for %q", key)
	}
	if size == 0 {
		return seq, nil
	}
	data, err := h.st.ReadSegment(key, seq, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	return seq, data
}

// assertMirrored checks the standby holds a bit-identical (generation,
// log) pair for key — the invariant failover parity rests on.
func assertMirrored(t *testing.T, primary, standby *storeHost, key string) {
	t.Helper()
	pSeq, pLog := segmentBytes(t, primary, key)
	sSeq, sLog := segmentBytes(t, standby, key)
	if pSeq != sSeq {
		t.Fatalf("generation diverged: primary seq %d, standby seq %d", pSeq, sSeq)
	}
	if !bytes.Equal(pLog, sLog) {
		t.Fatalf("delta log diverged: primary %d bytes, standby %d bytes", len(pLog), len(sLog))
	}
	pExp, err := primary.st.ExportBase(key)
	if err != nil {
		t.Fatal(err)
	}
	sExp, err := standby.st.ExportBase(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pExp.Data, sExp.Data) {
		t.Fatal("base snapshot bytes diverged")
	}
}

// replKey is the (default tenant, "fig2") store key — the bare name, by
// the default-tenant key contract.
const replKey = "fig2"

func TestReplicationBaseAndSegments(t *testing.T) {
	primary, standby, s := replPair(t, replKey)
	syn := buildFig2(t)
	if err := primary.st.SaveBase(replKey, syn, "test", time.Now(), 0, 1); err != nil {
		t.Fatal(err)
	}

	// First tick: first contact ships the base verbatim.
	s.tick()
	assertMirrored(t, primary, standby, replKey)

	// Deltas appended after the ship stream as segments.
	feedback(t, primary, replKey, syn, "/a/c/s/s/t", 2)
	feedback(t, primary, replKey, syn, "/a/c/s[t]/p", 7)
	s.tick()
	assertMirrored(t, primary, standby, replKey)

	// The standby's in-memory synopsis tracked the replay: estimates agree
	// with the primary's live synopsis.
	standby.mu.Lock()
	ssyn := standby.syns[replKey]
	standby.mu.Unlock()
	if ssyn == nil {
		t.Fatal("standby holds no synopsis")
	}
	for _, q := range []string{"/a/c/s/s/t", "/a/c/s", "//s//p", "/a/c/s[t]/p"} {
		want, err := syn.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ssyn.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: standby estimates %g, primary %g", q, got, want)
		}
	}
}

func TestReplicationDuplicateRetransmitIsIdempotent(t *testing.T) {
	primary, standby, s := replPair(t, replKey)
	syn := buildFig2(t)
	if err := primary.st.SaveBase(replKey, syn, "test", time.Now(), 0, 1); err != nil {
		t.Fatal(err)
	}
	feedback(t, primary, replKey, syn, "/a/c/s/s/t", 2)
	s.tick()
	assertMirrored(t, primary, standby, replKey)

	// Simulate an ack lost to a primary crash after the send but before
	// the cursor persisted: rewind the cursor to the log start and tick.
	// The standby must ack the duplicate at its durable tail without
	// re-applying a byte.
	_, size, _ := standby.st.Tail(replKey)
	s.mu.Lock()
	cur := s.cursors[replKey]
	cur.Off = 0
	s.cursors[replKey] = cur
	s.mu.Unlock()
	s.tick()
	if _, sizeAfter, _ := standby.st.Tail(replKey); sizeAfter != size {
		t.Fatalf("duplicate retransmit grew the standby log: %d -> %d", size, sizeAfter)
	}
	assertMirrored(t, primary, standby, replKey)
	if lag := s.lagBytes(); lag != 0 {
		t.Fatalf("sender lag after duplicate retransmit = %d, want 0", lag)
	}
}

func TestReplicationNeedBaseResync(t *testing.T) {
	primary, standby, s := replPair(t, replKey)
	syn := buildFig2(t)
	if err := primary.st.SaveBase(replKey, syn, "test", time.Now(), 0, 1); err != nil {
		t.Fatal(err)
	}
	s.tick()
	assertMirrored(t, primary, standby, replKey)

	// The standby loses the synopsis (disk wipe, recovery race). The next
	// segment nacks with needBase and the sender re-ships the base — the
	// stream self-heals without operator action.
	if err := standby.DeleteReplica(replKey); err != nil {
		t.Fatal(err)
	}
	feedback(t, primary, replKey, syn, "/a/c/s/s/t", 2)
	s.tick()
	assertMirrored(t, primary, standby, replKey)
}

func TestReplicationDeletePropagates(t *testing.T) {
	primary, standby, s := replPair(t, replKey)
	syn := buildFig2(t)
	if err := primary.st.SaveBase(replKey, syn, "test", time.Now(), 0, 1); err != nil {
		t.Fatal(err)
	}
	s.tick()
	assertMirrored(t, primary, standby, replKey)

	if err := primary.st.Remove(replKey); err != nil {
		t.Fatal(err)
	}
	// The delete rides the sender's durable queue (the NotifyDelete path).
	s.notifyDelete(replKey)
	s.tick()
	if _, _, ok := standby.st.Tail(replKey); ok {
		t.Fatal("standby still persists the deleted synopsis")
	}
	// Idempotent: a retransmitted delete acks cleanly.
	s.notifyDelete(replKey)
	s.tick()
}

func TestReplicationSenderSurvivesDeadTarget(t *testing.T) {
	// A dead standby must cost the sender nothing but lag: tick returns,
	// reporting unsent bytes, and never blocks the caller.
	primary := newStoreHost(t, t.TempDir())
	syn := buildFig2(t)
	if err := primary.st.SaveBase(replKey, syn, "test", time.Now(), 0, 1); err != nil {
		t.Fatal(err)
	}
	feedback(t, primary, replKey, syn, "/a/c/s/s/t", 2)

	// Reserve a port and close it so the dial fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	target := api.RingNode{ID: "dead", Repl: addr, State: api.RingStateActive}
	s := newSender("a", target, primary, func() []string { return []string{replKey} },
		time.Hour, t.TempDir(), NewMetrics(obs.Disabled), logx.Discard())
	done := make(chan struct{})
	go func() {
		s.tick()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("tick against a dead target did not return")
	}
	if s.lagBytes() == 0 {
		t.Fatal("sender reports no lag toward a dead target with unshipped state")
	}
	if s.lagSeconds(time.Now()) <= 0 {
		t.Fatal("sender reports no lag age toward a dead target")
	}
}
