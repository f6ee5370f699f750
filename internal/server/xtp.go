package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"xseed/api"
	"xseed/internal/obs"
	"xseed/internal/wire"
)

// xtpHandshakeTimeout bounds how long an accepted connection may take to
// complete the 4-byte handshake before the server drops it — a slot held
// open by a port scanner costs one goroutine for at most this long.
const xtpHandshakeTimeout = 10 * time.Second

// XTPOptions configures an XTP listener.
type XTPOptions struct {
	// Logger receives connection lifecycle and protocol-error records.
	// Nil discards.
	Logger *slog.Logger

	// Metrics receives the xseed_xtp_* families. Nil disables them.
	Metrics *obs.Registry
}

// XTP serves the xtp binary protocol (docs/PROTOCOL.md) over TCP: a codec
// over the same service — registry, admission, estimate cache, and error
// taxonomy — the HTTP JSON API serves, minus the HTTP and JSON. Requests
// multiplex over each connection by correlation ID, so one pipelining
// client drives the registry from many concurrent calls on a single socket.
type XTP struct {
	svc *service
	log *slog.Logger
	m   *xtpMetrics

	// baseCtx parents every request handler; cancel aborts in-flight work
	// when a drain deadline expires.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*xtpConn]struct{}
	closed bool

	wg sync.WaitGroup // one per live connection handler
}

// NewXTP builds an XTP listener over the registry, outside any cluster.
// Serve it on as many listeners as needed; Shutdown drains them all.
func NewXTP(reg *Registry, opts XTPOptions) *XTP {
	return newXTP(&service{reg: reg}, opts)
}

// newXTP builds an XTP listener over svc; a Server passes its own, so the
// listener shares the HTTP API's cluster ownership and ring.
func newXTP(svc *service, opts XTPOptions) *XTP {
	lg := opts.Logger
	if lg == nil {
		lg = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &XTP{
		svc:     svc,
		log:     lg,
		m:       newXTPMetrics(opts.Metrics),
		baseCtx: ctx,
		cancel:  cancel,
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[*xtpConn]struct{}),
	}
}

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a listener error. Each connection gets its own reader goroutine. The
// reader answers what costs no more than reading it — Ping, RingReq, a
// refused request, an estimate the cache answers whole — and dispatches
// every other request to a goroutine of its own, so a connection's slow
// requests run concurrently and never hold up the ones behind them.
func (x *XTP) Serve(ln net.Listener) error {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		ln.Close()
		return errors.New("xtp: server closed")
	}
	x.lns[ln] = struct{}{}
	x.mu.Unlock()
	defer func() {
		x.mu.Lock()
		delete(x.lns, ln)
		x.mu.Unlock()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			x.mu.Lock()
			closed := x.closed
			x.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		x.wg.Add(1)
		go x.handleConn(c)
	}
}

// Shutdown drains gracefully: stop accepting, tell every connection to go
// away (clients redial elsewhere or fail over), let in-flight requests
// finish writing, and close. When ctx expires first, in-flight handlers
// are canceled and connections force-closed.
func (x *XTP) Shutdown(ctx context.Context) error {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return nil
	}
	x.closed = true
	for ln := range x.lns {
		ln.Close()
	}
	conns := make([]*xtpConn, 0, len(x.conns))
	for cn := range x.conns {
		conns = append(conns, cn)
	}
	x.mu.Unlock()
	for _, cn := range conns {
		cn.beginDrain()
	}
	done := make(chan struct{})
	go func() { x.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		x.cancel() // abort in-flight registry work
		x.mu.Lock()
		for cn := range x.conns {
			cn.c.Close()
		}
		x.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// xtpConn is one accepted connection: a frame reader loop plus a mutex-
// serialized frame writer shared by the reader and every dispatched
// request handler.
type xtpConn struct {
	c net.Conn
	x *XTP

	// ten is the tenant this connection is bound to: the default until an
	// AuthReq rebinds it. Written and read only on the reader goroutine;
	// dispatched handlers capture the value request read there, so a later
	// AuthReq never races an in-flight request.
	ten *Tenant

	wmu sync.Mutex
	w   *wire.Writer

	inflight sync.WaitGroup // dispatched request handlers

	draining bool // guarded by wmu; set once Goaway is sent
}

// handleConn owns one connection from accept to close.
func (x *XTP) handleConn(c net.Conn) {
	defer x.wg.Done()
	defer c.Close()
	x.m.connsTotal.Inc()

	// Handshake under a deadline: read the client's, answer with ours.
	// A version we don't speak still gets our answer — that is how the
	// client learns what the server does speak — then the connection ends.
	c.SetReadDeadline(time.Now().Add(xtpHandshakeTimeout))
	ver, err := wire.ReadHandshake(c)
	if err != nil {
		x.m.handshakeErr.Inc()
		x.log.Debug("xtp handshake failed", "remote", c.RemoteAddr().String(), "err", err)
		return
	}
	if err := wire.WriteHandshake(c, wire.Version); err != nil {
		x.m.handshakeErr.Inc()
		return
	}
	if ver != wire.Version {
		x.m.handshakeErr.Inc()
		x.log.Warn("xtp version mismatch", "remote", c.RemoteAddr().String(),
			"clientVersion", ver, "serverVersion", wire.Version)
		return
	}
	c.SetReadDeadline(time.Time{})

	cn := &xtpConn{c: c, x: x, w: wire.NewWriter(c), ten: x.svc.reg.Tenants().Default()}
	x.mu.Lock()
	if x.closed {
		// Shutdown ran while this handshake was in flight and never saw the
		// connection: tell the client to go away before hanging up, as the
		// drain does for every connection it knows.
		x.mu.Unlock()
		cn.write(wire.FrameGoaway, 0, nil)
		return
	}
	x.conns[cn] = struct{}{}
	x.mu.Unlock()
	x.m.connsOpen.Add(1)
	x.log.Debug("xtp connection open", "remote", c.RemoteAddr().String())
	defer func() {
		x.mu.Lock()
		delete(x.conns, cn)
		x.mu.Unlock()
		x.m.connsOpen.Add(-1)
		x.log.Debug("xtp connection closed", "remote", c.RemoteAddr().String())
	}()

	cn.readLoop()
	// Let dispatched handlers finish writing their responses before the
	// deferred close tears the socket down.
	cn.inflight.Wait()
}

// readLoop decodes frames until the stream ends or breaks protocol, and
// answers or dispatches each. Request bodies are decoded here, on the
// reader goroutine — Frame.Payload aliases the reader's scratch buffer, so
// handlers receive decoded values, never the raw frame. The reader writes
// an answer itself only when it costs about what decoding the frame did:
// Pong, RingResp, AuthResp, a refused estimate's Error, and an estimate
// the cache answered whole (see estimate). A request that may parse, run a
// plan, or wait for an fsync is dispatched. While the reader writes, it
// reads nothing, so a peer that stops reading its responses stops the
// server reading its requests (docs/PROTOCOL.md §5).
func (cn *xtpConn) readLoop() {
	x := cn.x
	r := wire.NewReader(cn.c)
	var lastBytes int64
	for {
		f, err := r.ReadFrame()
		if err != nil {
			if !isConnClosed(err) {
				x.m.decodeErrors.Inc()
				x.log.Warn("xtp framing error", "remote", cn.c.RemoteAddr().String(), "err", err)
			}
			return
		}
		x.m.frameIn(f.Type, r.BytesRead()-lastBytes)
		lastBytes = r.BytesRead()
		switch f.Type {
		case wire.FramePing, wire.FrameStatsReq, wire.FrameRingReq:
			// A payload on a bodyless request means the stream is out of
			// sync (docs/PROTOCOL.md §3).
			if err := wire.DecodeEmpty(f.Payload); err != nil {
				cn.protocolError(f.Corr, err)
				return
			}
		}
		switch f.Type {
		case wire.FramePing:
			cn.write(wire.FramePong, f.Corr, nil)
		case wire.FrameAuthReq:
			token, err := wire.DecodeAuthReq(f.Payload)
			if err != nil {
				cn.protocolError(f.Corr, err)
				return
			}
			t, aerr := x.svc.reg.Tenants().resolveXTP(token)
			if aerr != nil {
				// Terminal, like the HTTP 401: an unauthenticated peer gets
				// nothing further on this connection.
				cn.writeError(f.Corr, aerr)
				return
			}
			cn.ten = t
			t.reqs.Inc()
			buf := wire.GetBuf()
			*buf = wire.AppendAuthResp(*buf, t.ID())
			cn.write(wire.FrameAuthResp, f.Corr, *buf)
			wire.PutBuf(buf)
		case wire.FrameEstimateReq:
			// The retired streaming bit is accepted and ignored.
			name, queries, _, err := wire.DecodeEstimateReq(f.Payload)
			if err != nil {
				cn.protocolError(f.Corr, err)
				return
			}
			cn.estimate(f.Corr, name, queries)
		case wire.FrameFeedbackReq:
			name, query, actual, err := wire.DecodeFeedbackReq(f.Payload)
			if err != nil {
				cn.protocolError(f.Corr, err)
				return
			}
			t, start := cn.request()
			cn.dispatch(f.Corr, start, x.m.feedbackSeconds, func(buf *[]byte) (wire.FrameType, *api.Error) {
				outcome, aerr := x.svc.feedback(t, name, query, actual)
				if aerr != nil {
					return 0, aerr
				}
				if outcome != nil {
					x.m.errorSent(outcome.Code)
				}
				*buf = wire.AppendFeedbackAck(*buf, outcome)
				return wire.FrameFeedbackAck, nil
			})
		case wire.FrameFeedbackBatchReq:
			name, items, err := wire.DecodeFeedbackBatchReq(f.Payload)
			if err != nil {
				cn.protocolError(f.Corr, err)
				return
			}
			t, start := cn.request()
			cn.dispatch(f.Corr, start, x.m.feedbackSeconds, func(buf *[]byte) (wire.FrameType, *api.Error) {
				errs, aerr := x.svc.feedbackBatch(t, name, items)
				if aerr != nil {
					return 0, aerr
				}
				*buf = wire.AppendFeedbackBatchAck(*buf, errs)
				return wire.FrameFeedbackBatchAck, nil
			})
		case wire.FrameStatsReq:
			t, start := cn.request()
			cn.dispatch(f.Corr, start, x.m.statsSeconds, func(buf *[]byte) (wire.FrameType, *api.Error) {
				// Stats is a cold path; its deeply nested payload rides as
				// JSON (normatively specified — see PROTOCOL.md §4.6).
				data, err := json.Marshal(x.svc.reg.StatsFor(t))
				if err != nil {
					return 0, api.WrapError(err, api.CodeInternal)
				}
				*buf = append(*buf, data...)
				return wire.FrameStatsResp, nil
			})
		case wire.FrameRingReq:
			if data, aerr := x.svc.ring(); aerr != nil {
				cn.writeError(f.Corr, aerr)
			} else {
				cn.write(wire.FrameRingResp, f.Corr, data)
			}
		default:
			// Unknown or direction-inverted frame: the stream cannot be
			// trusted past it (see the versioning rules in docs/PROTOCOL.md).
			cn.protocolError(f.Corr, fmt.Errorf("unexpected frame type %s", f.Type))
			return
		}
	}
}

// request starts one request on the reader goroutine, right after its
// decode: it reads the connection's tenant (see xtpConn.ten), counts the
// request against it, and starts the request's clock.
func (cn *xtpConn) request() (*Tenant, time.Time) {
	t := cn.ten
	t.reqs.Inc()
	return t, time.Now()
}

// estimate serves one EstimateReq. Admission and the cache probe run here,
// on the reader; the probe stops at the batch's first miss, so the reader
// spends at most one cache probe per query it decoded. A refused request
// and a batch the cache answered whole are written from here, so a cache
// hit starts no goroutine. A batch with a miss is dispatched to finish on
// its own goroutine, so a slow estimate never holds up a fast one behind
// it.
func (cn *xtpConn) estimate(corr uint64, name string, queries []string) {
	x := cn.x
	t, start := cn.request()
	var b estBatch
	aerr := x.svc.estimate(x.baseCtx, &b, t, name, queries)
	if aerr == nil && !b.answered() {
		pending := b // a copy, so that only a dispatched batch moves to the heap
		cn.dispatch(corr, start, x.m.estimateSeconds, func(buf *[]byte) (wire.FrameType, *api.Error) {
			items, aerr := x.svc.finishEstimate(x.baseCtx, &pending)
			if aerr != nil {
				return 0, aerr
			}
			*buf = wire.AppendEstimateResp(*buf, items)
			return wire.FrameEstimateResp, nil
		})
		return
	}
	cn.serve(corr, start, x.m.estimateSeconds, func(buf *[]byte) (wire.FrameType, *api.Error) {
		if aerr != nil {
			return 0, aerr
		}
		*buf = wire.AppendEstimateResp(*buf, b.items)
		return wire.FrameEstimateResp, nil
	})
}

// dispatch runs serve on a goroutine of its own, so the reader keeps
// decoding frames while the service works.
func (cn *xtpConn) dispatch(corr uint64, start time.Time, h *obs.Histogram, call func(buf *[]byte) (wire.FrameType, *api.Error)) {
	cn.inflight.Add(1)
	go func() {
		defer cn.inflight.Done()
		cn.serve(corr, start, h, call)
	}()
}

// serve answers one request. call encodes the response into the pooled
// buffer and names its frame type; an *api.Error from it fails the request
// whole with an Error frame instead, and so does a response too large for
// one frame (docs/PROTOCOL.md §4.7), which the peer could not read. The
// request's latency, from start to its response write, lands on h.
func (cn *xtpConn) serve(corr uint64, start time.Time, h *obs.Histogram, call func(buf *[]byte) (wire.FrameType, *api.Error)) {
	buf := wire.GetBuf()
	if ft, aerr := call(buf); aerr != nil {
		cn.writeError(corr, aerr)
	} else if len(*buf) > wire.MaxFrame {
		cn.writeError(corr, api.Errorf(api.CodeBadRequest,
			"response of %d bytes exceeds the %d-byte frame limit; split the request", len(*buf), wire.MaxFrame))
	} else {
		cn.write(ft, corr, *buf)
	}
	wire.PutBuf(buf)
	cn.x.m.observe(h, start)
}

// write sends one frame, serializing against concurrent handlers. Write
// failures mean the client is gone; the reader loop will notice and wind
// the connection down, so they are counted but not otherwise handled.
func (cn *xtpConn) write(t wire.FrameType, corr uint64, payload []byte) {
	cn.wmu.Lock()
	before := cn.w.BytesWritten()
	err := cn.w.WriteFrame(t, corr, payload)
	delta := cn.w.BytesWritten() - before
	cn.wmu.Unlock()
	if err == nil {
		cn.x.m.frameOut(t, delta)
	}
}

// writeError fails one request with a typed error frame.
func (cn *xtpConn) writeError(corr uint64, ae *api.Error) {
	cn.x.m.errorSent(ae.Code)
	buf := wire.GetBuf()
	*buf = wire.AppendError(*buf, ae)
	cn.write(wire.FrameError, corr, *buf)
	wire.PutBuf(buf)
}

// protocolError reports an undecodable or out-of-place frame and is
// followed by connection teardown: framing sync is gone, so unlike a
// request-level failure this is terminal.
func (cn *xtpConn) protocolError(corr uint64, err error) {
	cn.x.m.decodeErrors.Inc()
	cn.x.log.Warn("xtp protocol error", "remote", cn.c.RemoteAddr().String(), "err", err)
	cn.writeError(corr, api.Errorf(api.CodeBadRequest, "protocol error: %s", err))
}

// beginDrain pushes a Goaway and stops the reader by expiring its
// deadline; in-flight handlers keep writing until done (handleConn waits).
func (cn *xtpConn) beginDrain() {
	cn.wmu.Lock()
	already := cn.draining
	cn.draining = true
	cn.wmu.Unlock()
	if already {
		return
	}
	cn.write(wire.FrameGoaway, 0, nil)
	cn.c.SetReadDeadline(time.Now())
}

// isConnClosed classifies reader-loop exits that are lifecycle, not
// protocol: clean EOF, our own close/drain, or a vanished peer.
func isConnClosed(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, syscall.ECONNRESET)
}
