package server

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
	"os"
	"path/filepath"
	"strings"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/cluster"
	"xseed/internal/obs"
	"xseed/internal/store"
)

// Config configures an xseedd server.
type Config struct {
	Addr                 string // listen address, e.g. ":8080"
	CacheCapacity        int    // estimate cache entries (0 = default 4096)
	AggregateBudgetBytes int    // total synopsis memory budget (0 = unlimited)

	// XTPAddr, when non-empty, additionally serves the xtp binary protocol
	// (docs/PROTOCOL.md) on that TCP address — the same registry, cache,
	// and error taxonomy as the HTTP API, framed for pipelining clients
	// (xseed/client.XTP). Shutdown drains both listeners together.
	XTPAddr string

	// DataDir is the only directory the xmlFile/synopsisFile create sources
	// may read from; requested paths are resolved inside it. Empty disables
	// file sources over HTTP entirely (inline XML, datasets, and snapshot
	// uploads still work) — the API is otherwise an arbitrary-file-read
	// oracle for anyone who can reach the listen address.
	DataDir string

	// StoreDir enables durability: registered synopses are persisted there
	// (base snapshots + delta logs, see internal/store) and reloaded on
	// start. Empty keeps the registry in memory only.
	StoreDir string

	// StoreCompactRatio and StoreCompactInterval tune the background
	// compactor (zero values: store defaults of 0.5 and 15s). StoreFsync
	// selects the delta-log durability mode: "off" (or empty), "batch"
	// (group commit, see StoreBatchLatency), or "every" (fsync per append);
	// "true"/"false" stay accepted as aliases of every/off.
	StoreCompactRatio    float64
	StoreCompactInterval time.Duration
	StoreFsync           string

	// StoreBatchLatency spaces group-commit flushes with StoreFsync "batch":
	// while the store is busy, a flush starts this long after the one
	// before, so it bounds how long a record waits before its batch's fsync
	// starts; a record enqueued into an idle store is flushed at once
	// (0 = store default 2ms).
	StoreBatchLatency time.Duration

	// PprofAddr, when non-empty, serves net/http/pprof on a second,
	// admin-only listener (e.g. "localhost:6060") — never on the public
	// mux, so reaching the API does not grant heap dumps and CPU profiles.
	PprofAddr string

	// Logger is the server's structured logger. Nil means a text slog
	// logger on stderr.
	Logger *slog.Logger

	// Metrics receives every metric family the server and its registry,
	// cache, and store register, and backs GET /metrics. Nil means a fresh
	// obs.NewRegistry (metrics on); pass obs.Disabled to switch
	// instrumentation off (benchmark baselines).
	Metrics *obs.Registry

	// Tenants, when non-nil, enables multi-tenant mode (the -tenants flag):
	// bearer tokens resolve to the configured tenants, synopsis namespaces,
	// budgets, cache quotas, rate limits, and stats become tenant-scoped,
	// and tokenless requests resolve to the "default" tenant. Nil — not
	// merely empty — keeps the server single-tenant, byte-identical to
	// pre-tenancy behavior.
	Tenants []TenantConfig

	// Cluster, when non-nil, runs the daemon as one node of a distributed
	// xseed cluster: partition ownership, delta-log replication to warm
	// standbys, and typed moved redirects for synopses owned elsewhere.
	// Requires StoreDir. See ClusterOptions.
	Cluster *ClusterOptions
}

// Server is the xseedd HTTP server: a registry plus its JSON API. Its wire
// contract — request/response/error shapes and the /v1 route table — is
// the public xseed/api package; handlers marshal only api types.
type Server struct {
	reg       *Registry
	svc       *service // the operations both transports serve
	http      *http.Server
	xtp       *XTP   // nil unless Config.XTPAddr was set
	xtpAddr   string // requested xtp listen address
	dataDir   string
	st        *store.Store // nil when not persisting
	compact   time.Duration
	log       *slog.Logger
	om        *obs.Registry
	httpM     *httpMetrics
	pprofAddr string
	tenants   *TenantSet

	// Cluster mode (nil/-empty off-cluster): the node-side manager that
	// follows ring epochs and replicates primaries out, the standby
	// receiver for segments shipped in, and its listen address.
	cl       *cluster.Manager
	replSrv  *cluster.ReplServer
	replAddr string
}

// New builds a server around a fresh registry. With cfg.StoreDir set it
// opens the store and recovers every persisted synopsis — base snapshot plus
// delta-log replay — before the server accepts traffic.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	om := cfg.Metrics
	if om == nil {
		om = obs.NewRegistry()
	}
	ts := noTenants()
	if cfg.Tenants != nil {
		var err error
		if ts, err = NewTenantSet(om, cfg.Tenants); err != nil {
			return nil, err
		}
	}
	s := &Server{
		reg:       NewRegistryObs(cfg.CacheCapacity, cfg.AggregateBudgetBytes, om),
		dataDir:   cfg.DataDir,
		compact:   cfg.StoreCompactInterval,
		log:       logger,
		om:        om,
		httpM:     newHTTPMetrics(om),
		pprofAddr: cfg.PprofAddr,
		xtpAddr:   cfg.XTPAddr,
		tenants:   ts,
	}
	s.svc = &service{reg: s.reg}
	// Attach before store recovery: restored entries must resolve their
	// tenants (and tenant budget domains) against the final set.
	s.reg.AttachTenants(ts)
	if cfg.XTPAddr != "" {
		s.xtp = newXTP(s.svc, XTPOptions{Logger: logger, Metrics: om})
	}
	if cfg.StoreDir != "" {
		fsync, err := store.ParseFsyncMode(cfg.StoreFsync)
		if err != nil {
			return nil, err
		}
		st, err := store.Open(cfg.StoreDir, store.Options{
			CompactRatio: cfg.StoreCompactRatio,
			Fsync:        fsync,
			BatchLatency: cfg.StoreBatchLatency,
			Log:          logger,
			Metrics:      om,
		})
		if err != nil {
			return nil, fmt.Errorf("open store %s: %w", cfg.StoreDir, err)
		}
		loaded, err := st.LoadAll()
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("recover store %s: %w", cfg.StoreDir, err)
		}
		for _, l := range loaded {
			if _, err := s.reg.Restore(l); err != nil {
				st.Close()
				return nil, fmt.Errorf("restore %q: %w", l.Name, err)
			}
			logger.Info("restored synopsis", "synopsis", l.Name, "source", l.Source, "replayedDeltas", l.Replay)
		}
		s.reg.AttachStore(st, logger)
		s.st = st
	}
	if cfg.Cluster != nil {
		// After store recovery: the manager's first ownership sweep must see
		// every restored synopsis to demote the ones owned elsewhere.
		if err := s.attachCluster(cfg.Cluster); err != nil {
			if s.st != nil {
				s.st.Close()
			}
			return nil, err
		}
	}
	// Start the async budget rebalancer only after recovery: Restore's
	// rebalances must apply synchronously so the registry's budgets are
	// settled (and match a fresh plan over the full fleet) before traffic.
	s.reg.StartRebalancer()
	s.http = &http.Server{Addr: cfg.Addr, Handler: s.Handler()}
	return s, nil
}

// Close drains the registry's budget rebalancer, then releases the store
// (flushing delta logs) — in that order, so budget deltas from a pending
// rebalance reach the log before it is flushed and closed. Run does this on
// shutdown; callers that never Run (tests mounting Handler) should Close
// themselves.
func (s *Server) Close() error {
	s.reg.Close()
	if s.st == nil {
		return nil
	}
	return s.st.Close()
}

// Registry returns the server's registry (for preloading synopses).
func (s *Server) Registry() *Registry { return s.reg }

// Handler mounts the api.Routes table: every route under its /v1 path,
// wrapped with its per-route metrics (children resolved here, once) and the
// bearer-token tenant resolver; the retired unversioned aliases answer with
// a typed not_found pointing at their /v1 successor. The whole mux sits
// behind the request-ID/access-log middleware. It is independent of any
// listener — this is what httptest mounts in the end-to-end tests.
func (s *Server) Handler() http.Handler {
	handlers := map[string]http.HandlerFunc{
		"GET /v1/healthz":                         s.handleHealthz,
		"GET /v1/stats":                           s.handleStats,
		"GET /v1/synopses":                        s.handleList,
		"POST /v1/synopses":                       s.handleCreate,
		"GET /v1/synopses/{name}":                 s.handleGet,
		"DELETE /v1/synopses/{name}":              s.handleDelete,
		"POST /v1/synopses/{name}/estimate":       s.handleEstimate,
		"POST /v1/synopses/{name}/feedback":       s.handleFeedback,
		"POST /v1/synopses/{name}/feedback:batch": s.handleFeedbackBatch,
		"POST /v1/synopses/{name}/subtree":        s.handleSubtree,
		"GET /v1/synopses/{name}/snapshot":        s.handleSnapshotGet,
		"PUT /v1/synopses/{name}/snapshot":        s.handleSnapshotPut,
		"GET /v1/cluster/ring":                    s.handleClusterRing,
		"GET /v1/cluster/lag":                     s.handleClusterLag,
		"POST /v1/admin/budget":                   s.handleBudget,
		"POST /v1/admin/compact":                  s.handleCompact,
		"GET /metrics":                            s.handleMetrics,
	}
	mux := http.NewServeMux()
	mounted := 0
	for _, rt := range api.Routes() {
		h, ok := handlers[rt.Method+" "+rt.Path]
		if !ok {
			panic(fmt.Sprintf("server: api.Routes declares %s %s but no handler is bound", rt.Method, rt.Path))
		}
		if rt.Path != "/metrics" {
			// /metrics stays tokenless (a Prometheus scraper carries no
			// bearer token and serves no tenant-scoped payload).
			h = s.withTenant(h)
		}
		h = instrument(s.httpM.route(rt.Method+" "+rt.Path), h)
		mux.HandleFunc(rt.Method+" "+rt.Path, h)
		if rt.Legacy != "" {
			mux.HandleFunc(rt.Method+" "+rt.Legacy, removedAlias)
		}
		mounted++
	}
	if mounted != len(handlers) {
		panic("server: handler bound to a route api.Routes does not declare")
	}
	return s.withRequestID(mux)
}

// removedAlias answers the retired pre-/v1 alias paths. The aliases were
// removed after their deprecation window, but the mux's default 404 is
// plain text — the old paths keep speaking the typed error envelope, with
// the /v1 successor named in the message and a Link header, so a stale
// client's failure mode is self-diagnosing.
func removedAlias(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Link", fmt.Sprintf("</v1%s>; rel=\"successor-version\"", r.URL.Path))
	writeAPIError(w, r, api.Errorf(api.CodeNotFound,
		"this unversioned route was removed; use /v1%s", r.URL.Path))
}

// ctxKeyTenant carries the resolved *Tenant through the request context.
const ctxKeyTenant ctxKey = 1

// withTenant resolves the request's tenant from its Authorization header
// (see TenantSet.resolveHTTP) before the handler runs: unauthorized
// requests never reach a handler, and handlers read the tenant back with
// s.tenant. On untenanted servers resolution is two branches and the
// per-tenant request counter is inert.
func (s *Server) withTenant(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, aerr := s.tenants.resolveHTTP(r)
		if aerr != nil {
			writeAPIError(w, r, aerr)
			return
		}
		t.reqs.Inc()
		h(w, r.WithContext(context.WithValue(r.Context(), ctxKeyTenant, t)))
	}
}

// tenant returns the request's resolved tenant (default when the route ran
// without withTenant, e.g. in handler-level tests).
func (s *Server) tenant(r *http.Request) *Tenant {
	if t, ok := r.Context().Value(ctxKeyTenant).(*Tenant); ok {
		return t
	}
	return s.tenants.Default()
}

// synKey qualifies a client-supplied synopsis name with the tenant's
// namespace. A NUL byte is rejected at this boundary on every route that
// takes a name: store.Key reserves NUL as its separator, so a crafted name
// could otherwise alias another tenant's key.
func synKey(t *Tenant, name string) (string, *api.Error) {
	if strings.ContainsRune(name, 0) {
		return "", api.Errorf(api.CodeBadRequest, "synopsis name must not contain NUL")
	}
	return store.Key(t.ID(), name), nil
}

// adminOnly gates the admin routes (budget, compact): on a tenanted server
// only the default tenant — the operator — may call them.
func (s *Server) adminOnly(t *Tenant) *api.Error {
	if s.tenants.Enabled() && t != s.tenants.Default() {
		return api.Errorf(api.CodeUnauthorized, "admin routes require the default tenant's token")
	}
	return nil
}

// Run serves until ctx is cancelled, then shuts down gracefully: in-flight
// requests drain for up to 10 seconds, and the store's delta logs are
// flushed and closed last. A listener that cannot bind (port taken,
// privileged port, bad address) is a hard error returned to the caller —
// never exit silently leaving the caller to discover a daemon that isn't
// there.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.http.Addr)
	if err != nil {
		s.Close()
		return fmt.Errorf("listen: %w", err)
	}
	s.log.Info("listening", "addr", ln.Addr().String())
	// The replication listener is cluster-internal but still a hard
	// dependency: a node that cannot receive segments can never be a warm
	// standby, so failing to bind it is a startup error.
	var replLn net.Listener
	if s.cl != nil {
		replLn, err = net.Listen("tcp", s.replAddr)
		if err != nil {
			ln.Close()
			s.Close()
			return fmt.Errorf("repl listen: %w", err)
		}
		s.log.Info("replication listening", "addr", replLn.Addr().String(), "node", s.cl.Self())
	}
	// The xtp listener is a requested serving transport, so like the HTTP
	// one a bind failure is a hard startup error, not a logged degradation.
	var xtpErrc chan error
	if s.xtp != nil {
		xln, err := net.Listen("tcp", s.xtpAddr)
		if err != nil {
			ln.Close()
			if replLn != nil {
				replLn.Close()
			}
			s.Close()
			return fmt.Errorf("xtp listen: %w", err)
		}
		s.log.Info("xtp listening", "addr", xln.Addr().String())
		xtpErrc = make(chan error, 1)
		go func() { xtpErrc <- s.xtp.Serve(xln) }()
	}
	if s.st != nil {
		go s.st.StartCompactor(ctx, s.compact)
	}
	if s.cl != nil {
		// Both halves of replication ride Run's ctx: the standby receiver
		// applies segments shipped in, the manager polls the router's ring
		// and streams this node's primaries out.
		go func() {
			if err := s.replSrv.Serve(ctx, replLn); err != nil {
				s.log.Error("replication serve failed", "err", err)
			}
		}()
		go s.cl.Run(ctx)
	}
	// The pprof listener is best-effort operator surface: it must never take
	// the serving daemon down with it, so bind failures are logged, not
	// returned, and Serve errors are swallowed after shutdown.
	var pprofSrv *http.Server
	if s.pprofAddr != "" {
		pln, perr := net.Listen("tcp", s.pprofAddr)
		if perr != nil {
			s.log.Error("pprof listen failed", "addr", s.pprofAddr, "err", perr)
		} else {
			pmux := http.NewServeMux()
			mountPprof(pmux)
			pprofSrv = &http.Server{Handler: pmux}
			s.log.Info("pprof listening", "addr", pln.Addr().String())
			go func() {
				if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					s.log.Error("pprof serve failed", "err", err)
				}
			}()
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- s.http.Serve(ln) }()
	serveErr := func(err error) error {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}
	select {
	case err := <-errc:
		if s.xtp != nil {
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			s.xtp.Shutdown(sctx)
			cancel()
		}
		return serveErr(err)
	case err := <-xtpErrc: // nil channel (no xtp) blocks forever
		s.http.Close()
		<-errc
		return serveErr(fmt.Errorf("xtp serve: %w", err))
	case <-ctx.Done():
	}
	s.log.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if pprofSrv != nil {
		pprofSrv.Shutdown(shutdownCtx)
	}
	// Both serving transports drain in parallel under the same deadline:
	// in-flight HTTP requests and in-flight xtp frames finish, pipelining
	// clients get a Goaway, and only then do the sockets close.
	var xtpDone chan error
	if s.xtp != nil {
		xtpDone = make(chan error, 1)
		go func() { xtpDone <- s.xtp.Shutdown(shutdownCtx) }()
	}
	if err := s.http.Shutdown(shutdownCtx); err != nil {
		if xtpDone != nil {
			<-xtpDone
		}
		return serveErr(err)
	}
	if xtpDone != nil {
		if err := <-xtpDone; err != nil {
			return serveErr(fmt.Errorf("xtp shutdown: %w", err))
		}
		<-xtpErrc // Serve returned nil after Shutdown closed its listener
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return serveErr(err)
	}
	return serveErr(nil)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps any error onto the api taxonomy and writes the standard
// envelope: registry sentinels become not_found/conflict, XPath parse
// failures become parse_error with their offset in the detail, context
// cancellation becomes canceled, and anything else is a bad_request.
func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	writeAPIError(w, r, toAPIError(err))
}

// writeAPIError writes the error envelope; on 5xx it attaches the request
// ID to the error detail so the client-reported failure matches the
// server's access-log line in one grep.
func writeAPIError(w http.ResponseWriter, r *http.Request, e *api.Error) {
	if r != nil && e.HTTPStatus() >= 500 && len(e.Detail) == 0 {
		if id := requestID(r.Context()); id != "" {
			e = &api.Error{Code: e.Code, Msg: e.Msg,
				Detail: json.RawMessage(fmt.Sprintf(`{"requestId":%q}`, id))}
		}
	}
	api.WriteError(w, e)
}

// internalErr logs and serves a 5xx with the request ID attached.
func (s *Server) internalErr(w http.ResponseWriter, r *http.Request, err error) {
	s.log.Error("internal error",
		"path", r.URL.Path, "requestId", requestID(r.Context()), "err", err)
	writeAPIError(w, r, api.WrapError(err, api.CodeInternal))
}

// toAPIError is the single server-side mapping from Go errors onto the
// wire taxonomy (statuses come from the code via api.Error.HTTPStatus,
// never from message text).
func toAPIError(err error) *api.Error {
	switch {
	case errors.Is(err, ErrNotFound):
		return api.Errorf(api.CodeNotFound, "%s", err)
	case errors.Is(err, ErrExists):
		return api.Errorf(api.CodeConflict, "%s", err)
	default:
		return api.WrapError(err, api.CodeBadRequest)
	}
}

func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, r, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// synopsisConfig converts the wire config into construction options.
func synopsisConfig(c *api.SynopsisConfig) *xseed.Config {
	if c == nil {
		return nil
	}
	cfg := &xseed.Config{CardThreshold: c.CardThreshold}
	switch {
	case c.KernelOnly:
		cfg.HET = &xseed.HETConfig{Disable: true}
	default:
		cfg.HET = &xseed.HETConfig{
			FeedbackOnly:  c.FeedbackOnly,
			MBP:           c.MBP,
			BselThreshold: c.BselThreshold,
			BudgetBytes:   c.BudgetBytes,
		}
		if cfg.HET.MBP == 0 {
			cfg.HET.MBP = 1
		}
	}
	return cfg
}

// resolveDataPath confines a client-supplied file path to dataDir: the path
// is treated as relative to dataDir and cleaned with a forced leading slash
// first, so ".." segments cannot escape it.
func resolveDataPath(dataDir, p string) (string, error) {
	if dataDir == "" {
		return "", fmt.Errorf("file sources are disabled (start the server with -data-dir)")
	}
	return filepath.Join(dataDir, filepath.Clean("/"+p)), nil
}

// buildSynopsis realizes a CreateRequest's single source into a synopsis.
func buildSynopsis(req api.CreateRequest, dataDir string) (*xseed.Synopsis, string, error) {
	sources := 0
	for _, set := range []bool{req.XML != "", req.XMLFile != "", req.Dataset != "", req.SynopsisFile != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, "", fmt.Errorf("specify exactly one of xml, xmlFile, dataset, synopsisFile")
	}
	var (
		doc    *xseed.Document
		source string
		err    error
	)
	switch {
	case req.SynopsisFile != "":
		path, err := resolveDataPath(dataDir, req.SynopsisFile)
		if err != nil {
			return nil, "", err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		syn, err := xseed.ReadSynopsis(f)
		if err != nil {
			return nil, "", err
		}
		return syn, "file " + req.SynopsisFile, nil
	case req.XML != "":
		doc, err = xseed.ParseXMLString(req.XML)
		source = "xml upload"
	case req.XMLFile != "":
		var path string
		if path, err = resolveDataPath(dataDir, req.XMLFile); err != nil {
			return nil, "", err
		}
		doc, err = xseed.LoadFile(path)
		source = "xml file " + req.XMLFile
	default:
		factor := req.Factor
		if factor == 0 {
			factor = 1
		}
		doc, err = xseed.Generate(req.Dataset, factor, req.Seed)
		source = fmt.Sprintf("dataset %s ×%g", req.Dataset, factor)
	}
	if err != nil {
		return nil, "", err
	}
	syn, err := xseed.BuildSynopsis(doc, synopsisConfig(req.Config))
	if err != nil {
		return nil, "", err
	}
	return syn, source, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeErr(w, r, fmt.Errorf("missing name"))
		return
	}
	key, aerr := s.svc.admit(s.tenant(r), req.Name, 0)
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	// Racy early uniqueness check: building a synopsis can cost seconds of
	// CPU, so reject an already-taken name before paying for it. Add below
	// remains the authoritative check.
	if _, err := s.reg.Get(key); err == nil {
		writeErr(w, r, fmt.Errorf("synopsis %q %w", req.Name, ErrExists))
		return
	}
	syn, source, err := buildSynopsis(req, s.dataDir)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	e, err := s.reg.Add(key, syn, source)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, e.Info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.ListFor(s.tenant(r)))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key, aerr := s.svc.admit(s.tenant(r), r.PathValue("name"), 0)
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	e, err := s.reg.Get(key)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, e.Info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	key, aerr := s.svc.admit(s.tenant(r), r.PathValue("name"), 0)
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	if err := s.reg.Delete(key); err != nil {
		writeErr(w, r, err)
		return
	}
	if s.cl != nil {
		// Propagate to the standbys so the replica copies die with the
		// primary instead of resurrecting the name on the next failover.
		s.cl.NotifyDelete(key)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req api.EstimateRequest
	if !readBody(w, r, &req) {
		return
	}
	queries := req.Queries
	if req.Query != "" {
		queries = append([]string{req.Query}, queries...)
	}
	var b estBatch
	aerr := s.svc.estimate(r.Context(), &b, s.tenant(r), r.PathValue("name"), queries, req.Streaming)
	var items []api.EstimateItem
	if aerr == nil {
		items, aerr = s.svc.finishEstimate(r.Context(), &b)
	}
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	writeJSON(w, http.StatusOK, api.EstimateResponse{Results: items})
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req api.FeedbackRequest
	if !readBody(w, r, &req) {
		return
	}
	outcome, aerr := s.svc.feedback(s.tenant(r), r.PathValue("name"), req.Query, req.Actual)
	if aerr == nil {
		aerr = outcome
	}
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFeedbackBatch(w http.ResponseWriter, r *http.Request) {
	var req api.FeedbackBatchRequest
	if !readBody(w, r, &req) {
		return
	}
	errs, aerr := s.svc.feedbackBatch(s.tenant(r), r.PathValue("name"), req.Items)
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	resp := api.FeedbackBatchResponse{Results: make([]api.FeedbackBatchItem, len(errs))}
	for i, e := range errs {
		resp.Results[i].Error = e
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubtree(w http.ResponseWriter, r *http.Request) {
	key, aerr := s.svc.admit(s.tenant(r), r.PathValue("name"), 0)
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	var req api.SubtreeRequest
	if !readBody(w, r, &req) {
		return
	}
	var err error
	switch req.Op {
	case "add":
		err = s.reg.AddSubtree(key, req.Context, req.XML)
	case "remove":
		err = s.reg.RemoveSubtree(key, req.Context, req.XML)
	default:
		writeErr(w, r, fmt.Errorf("op must be \"add\" or \"remove\""))
		return
	}
	if err != nil {
		writeErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	key, aerr := s.svc.admit(s.tenant(r), r.PathValue("name"), 0)
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	e, err := s.reg.Get(key)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	// Serialize into memory under the read lock, write to the client after
	// releasing it: streaming WriteTo directly to a slow client would pin
	// the entry lock (and, through rebalancing, potentially the whole
	// registry) for the duration of the download.
	var buf bytes.Buffer
	e.mu.RLock()
	_, err = e.syn.WriteTo(&buf)
	e.mu.RUnlock()
	if err != nil {
		s.internalErr(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(buf.Bytes()); err != nil {
		// The body write failing mid-stream cannot change the status line, so
		// the only record is the log: name the synopsis, the generation the
		// bytes came from, and the error's taxonomy code.
		s.log.Error("snapshot download failed",
			"synopsis", e.name,
			"generation", e.ver.Load(),
			"bytes", buf.Len(),
			"code", api.WrapError(err, api.CodeInternal).Code,
			"requestId", requestID(r.Context()),
			"err", err)
	}
}

func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	key, aerr := s.svc.admit(s.tenant(r), r.PathValue("name"), 0)
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	syn, err := xseed.ReadSynopsis(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		writeErr(w, r, err)
		return
	}
	e, err := s.reg.Put(key, syn, "snapshot upload")
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, e.Info())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.StatsFor(s.tenant(r)))
}

// handleMetrics serves the Prometheus text exposition. Every family reads
// the same atomics /v1/stats serves, so the two views cannot disagree.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.om.WritePrometheus(w)
}

// handleBudget re-targets the aggregate budget (or, with "tenant" set in
// the body, one tenant's private budget). Admin-only on tenanted servers.
// The response carries the rebalance generation the change planned;
// per-synopsis budgets are applied asynchronously — poll /v1/stats until
// rebalance.appliedGen reaches it.
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	if aerr := s.adminOnly(s.tenant(r)); aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	var req api.BudgetRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.Bytes < 0 {
		writeErr(w, r, fmt.Errorf("bytes must be >= 0"))
		return
	}
	if req.Tenant != "" {
		t := s.tenants.lookup(req.Tenant)
		if t == nil {
			writeAPIError(w, r, api.Errorf(api.CodeNotFound, "tenant %q not found", req.Tenant))
			return
		}
		s.reg.SetTenantBudget(t, req.Bytes)
	} else {
		s.reg.SetAggregateBudget(req.Bytes)
	}
	writeJSON(w, http.StatusAccepted, s.reg.RebalanceStats())
}

// handleCompact folds delta logs into fresh base snapshots on demand:
// POST /v1/admin/compact[?synopsis=name] compacts one synopsis (resolved in
// the default tenant's namespace) or, without the parameter, every
// registered one across all tenants. Admin-only on tenanted servers.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if aerr := s.adminOnly(s.tenant(r)); aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	if s.st == nil {
		writeAPIError(w, r, api.Errorf(api.CodeConflict, "server has no store (start with -store-dir)"))
		return
	}
	var keys []string
	if name := r.URL.Query().Get("synopsis"); name != "" {
		key, aerr := synKey(s.tenant(r), name)
		if aerr != nil {
			writeAPIError(w, r, aerr)
			return
		}
		if _, err := s.reg.Get(key); err != nil {
			writeErr(w, r, err)
			return
		}
		keys = []string{key}
	} else {
		keys = s.reg.Keys()
	}
	resp := api.CompactResponse{Compacted: []string{}}
	for _, key := range keys {
		folded, err := s.st.CompactNow(key)
		if err != nil {
			s.internalErr(w, r, err)
			return
		}
		if folded {
			resp.Compacted = append(resp.Compacted, seriesFor(key))
		}
	}
	resp.Store = storeStatsAPI(s.st.Stats(), s.tenants, nil)
	writeJSON(w, http.StatusOK, resp)
}

// storeStatsAPI projects the store's stats onto the wire type, scoped to
// the requesting tenant: only t's synopses appear, under their bare names.
// A nil t skips the filter (the admin compact response reports the whole
// store), tagging each row with its tenant — empty for the default, so
// untenanted payloads are byte-identical to pre-tenancy ones.
func storeStatsAPI(st store.Stats, ts *TenantSet, t *Tenant) api.StoreStats {
	out := api.StoreStats{Dir: st.Dir}
	for _, s := range st.Synopses {
		ten, bare := store.SplitKey(s.Name)
		if t != nil && ts.lookup(ten) != t {
			continue
		}
		row := api.StoreSynopsisStats{
			Name:         bare,
			Seq:          s.Seq,
			BaseBytes:    s.BaseBytes,
			DeltaBytes:   s.DeltaBytes,
			DeltaRecords: s.DeltaRecords,
			Compactions:  s.Compactions,
		}
		if ten != store.DefaultTenant {
			row.Tenant = ten
		}
		out.Synopses = append(out.Synopses, row)
	}
	return out
}
