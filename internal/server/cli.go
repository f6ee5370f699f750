package server

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xseed/internal/cluster"
	"xseed/internal/logx"
	"xseed/internal/store"
)

// fsyncModeValue is -store-fsync's flag value: a durability mode ("off",
// "batch", "every") that also behaves as the boolean flag it used to be —
// bare `-store-fsync` still means every, `-store-fsync=false` still means
// off — so existing scripts keep working.
type fsyncModeValue struct{ mode store.FsyncMode }

func (v *fsyncModeValue) String() string   { return v.mode.String() }
func (v *fsyncModeValue) IsBoolFlag() bool { return true }
func (v *fsyncModeValue) Set(s string) error {
	m, err := store.ParseFsyncMode(s)
	if err != nil {
		return err
	}
	v.mode = m
	return nil
}

func fsyncFlag(fs *flag.FlagSet) *fsyncModeValue {
	v := &fsyncModeValue{}
	fs.Var(v, "store-fsync", "delta-log durability `mode`: off (default; survives process crashes), batch (group commit: an idle store fsyncs at once, a busy one at most once per -store-batch-latency; ack after durable), or every (fsync per append)")
	return v
}

// RunCLI parses daemon flags and serves until SIGINT/SIGTERM, shutting down
// gracefully: in-flight requests drain first, then the background budget
// rebalancer (so planned budgets and their persisted deltas land), and the
// store flushes last. It backs both the xseedd binary and `xseed serve`.
// Startup failures — a taken port, an unreadable store, a bad preload — are
// returned to the caller, which exits non-zero with the error on stderr.
func RunCLI(name string, args []string) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	xtpAddr := fs.String("xtp", "", "additional listen address for the xtp binary protocol (docs/PROTOCOL.md; empty = disabled)")
	cache := fs.Int("cache", 4096, "estimate cache capacity (entries)")
	budget := fs.Int("budget", 0, "aggregate synopsis memory budget in bytes (0 = unlimited)")
	dataDir := fs.String("data-dir", "", "directory the HTTP xmlFile/synopsisFile sources may read (empty = disabled)")
	storeDir := fs.String("store-dir", "", "durable store directory: persist synopses and reload them on start (empty = in-memory only)")
	compactRatio := fs.Float64("store-compact-ratio", 0, "compact when delta log exceeds this ratio of the base snapshot (0 = default 0.5)")
	compactIvl := fs.Duration("store-compact-interval", 0, "background compaction check interval (0 = default 15s)")
	storeFsync := fsyncFlag(fs)
	batchLatency := fs.Duration("store-batch-latency", 0, "spacing of -store-fsync=batch flushes while the store is busy, so the most a record waits before its group fsync starts; a record enqueued into an idle store does not wait (0 = default 2ms)")
	fsck := fs.Bool("store-fsck", false, "validate -store-dir (manifest, snapshot loads, delta checksums and replay), print a report, and exit")
	tenantsFile := fs.String("tenants", "", "enable multi-tenant mode: JSON file of [{\"id\",\"token\",\"budgetBytes\",\"cacheQuota\",\"ratePerSec\",\"burst\"}] tenant configs (empty = single-tenant)")
	clusterFile := fs.String("cluster", "", "cluster topology JSON file (replicas, router, nodes); requires -cluster-node or -router")
	clusterNode := fs.String("cluster-node", "", "run as this node of the -cluster topology: partitioned ownership plus delta-log replication to warm standbys")
	routerMode := fs.Bool("router", false, "run as the -cluster topology's router instead of a node: membership health checks, ring epochs, and request proxying")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	pprofAddr := fs.String("pprof", "", "admin listen address for net/http/pprof profiles (empty = disabled; keep it off public interfaces)")
	var preloads []string
	fs.Func("synopsis", "preload `name=path` (synopsis file or XML; repeatable)", func(v string) error {
		preloads = append(preloads, v)
		return nil
	})
	fs.Parse(args)

	if *fsck {
		if *storeDir == "" {
			return fmt.Errorf("-store-fsck requires -store-dir")
		}
		rep, err := store.Fsck(*storeDir)
		if err != nil {
			return err
		}
		rep.WriteReport(os.Stdout)
		if !rep.OK {
			return fmt.Errorf("store %s failed fsck", *storeDir)
		}
		return nil
	}

	logger, err := logx.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	if (*clusterNode != "" || *routerMode) && *clusterFile == "" {
		return fmt.Errorf("-cluster-node and -router require -cluster FILE")
	}
	var clusterOpts *ClusterOptions
	if *clusterFile != "" {
		ccfg, err := cluster.LoadConfigFile(*clusterFile)
		if err != nil {
			return err
		}
		if *routerMode {
			// The router is a separate role: membership authority and thin
			// proxy, never a registry. It ignores every serving flag.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			return cluster.NewRouter(ccfg, logger).Run(ctx)
		}
		if *clusterNode == "" {
			return fmt.Errorf("-cluster requires -cluster-node ID (or -router)")
		}
		node, ok := ccfg.Node(*clusterNode)
		if !ok {
			return fmt.Errorf("node %q is not in %s", *clusterNode, *clusterFile)
		}
		// The topology file is the single source of listen addresses in
		// cluster mode, so the fleet cannot disagree with the ring it serves.
		*addr = node.HTTP
		if node.XTP != "" {
			*xtpAddr = node.XTP
		}
		clusterOpts = &ClusterOptions{Config: ccfg, NodeID: *clusterNode}
	}

	var tenants []TenantConfig
	if *tenantsFile != "" {
		if tenants, err = LoadTenantsFile(*tenantsFile); err != nil {
			return err
		}
		if tenants == nil {
			// An empty config file still enables tenancy (Config.Tenants
			// distinguishes nil from empty).
			tenants = []TenantConfig{}
		}
	}

	srv, err := New(Config{
		Addr:                 *addr,
		XTPAddr:              *xtpAddr,
		CacheCapacity:        *cache,
		AggregateBudgetBytes: *budget,
		DataDir:              *dataDir,
		StoreDir:             *storeDir,
		StoreCompactRatio:    *compactRatio,
		StoreCompactInterval: time.Duration(*compactIvl),
		StoreFsync:           storeFsync.String(),
		StoreBatchLatency:    *batchLatency,
		Logger:               logger,
		PprofAddr:            *pprofAddr,
		Tenants:              tenants,
		Cluster:              clusterOpts,
	})
	if err != nil {
		return err
	}
	if err := Preload(srv.Registry(), preloads); err != nil {
		srv.Close()
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.Run(ctx)
}
