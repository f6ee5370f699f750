// Command xseedd is the XSEED estimation daemon: a long-lived server
// managing many named synopses concurrently, with a sharded cache of
// estimate results in front of them and an optional durable store behind
// them. It speaks HTTP JSON always and, with -xtp, the xtp binary
// protocol beside it.
//
//	xseedd [-addr :8080] [-xtp addr] [-cache 4096] [-budget 0]
//	       [-synopsis name=path]... [-tenants file.json]
//	       [-store-dir DIR] [-store-compact-ratio 0.5]
//	       [-store-compact-interval 15s] [-store-fsync[=off|batch|every]]
//	       [-store-batch-latency 2ms]
//	       [-log-format text|json] [-log-level info] [-pprof addr]
//	xseedd -store-fsck -store-dir DIR
//	xseedd -cluster topo.json -cluster-node ID -store-dir DIR   (cluster node)
//	xseedd -cluster topo.json -router                           (cluster router)
//
// Each -synopsis flag preloads one synopsis at startup from either a file
// written by `xseed build` or a raw XML document.
//
// With -store-dir the daemon is restart-safe: every registered synopsis is
// persisted as a base snapshot plus an append-only delta log (feedback,
// subtree updates, and budget changes cost O(delta) bytes each, not a full
// snapshot rewrite), a background compactor folds grown logs into fresh
// bases, and on start the whole registry is reloaded from the store's
// manifest with deltas replayed — tolerating the torn log tail a kill -9
// leaves behind. -store-fsync picks the durability mode: off (page cache),
// batch (group commit: an idle store fsyncs a record at once, a busy one
// starts a flush at most once per -store-batch-latency so concurrent
// appends share its fsync, and callers ack only after their batch is
// durable), or every (one fsync per append: per feedback round, per other
// mutation); see the README's "Durability modes" table. -store-fsck
// validates a store directory (manifest, snapshot loads, delta checksums,
// full replay) and exits, for use as a CI or pre-start smoke check.
//
// The HTTP API supports creating, estimating against, tuning, and
// snapshotting synopses at runtime. Its wire contract — versioned /v1
// routes, request/response types, and the typed error taxonomy — is the
// public xseed/api package (see api/README.md for the route table), and
// xseed/client is the Go SDK over it:
//
//	POST   /v1/synopses                      build/load a named synopsis
//	GET    /v1/synopses                      list synopses
//	GET    /v1/synopses/{name}               one synopsis's stats
//	DELETE /v1/synopses/{name}               drop a synopsis
//	POST   /v1/synopses/{name}/estimate      batched estimates (partial success)
//	POST   /v1/synopses/{name}/feedback      record an actual cardinality
//	POST   /v1/synopses/{name}/feedback:batch  batched feedback (partial success)
//	POST   /v1/synopses/{name}/subtree       incremental add/remove update
//	GET    /v1/synopses/{name}/snapshot      download serialized synopsis
//	PUT    /v1/synopses/{name}/snapshot      upload serialized synopsis
//	GET    /v1/cluster/ring                  partition ring (cluster mode)
//	GET    /v1/cluster/lag                   per-target replication lag (cluster mode)
//	POST   /v1/admin/budget                  re-target the aggregate budget
//	POST   /v1/admin/compact                 fold delta logs into fresh bases
//	GET    /v1/stats                         sizes, cache hit rate, accuracy, store
//	GET    /v1/healthz                       liveness
//	GET    /metrics                          Prometheus text exposition
//
// The pre-versioning unversioned paths were removed after their
// deprecation window; they answer a typed not_found naming the /v1
// successor.
//
// -tenants FILE enables multi-tenant serving: every /v1 route then
// requires an Authorization: Bearer token resolving one of the
// configured tenants, all synopsis names are tenant-scoped, and each
// tenant gets its own rate limit, cache quota, and memory budget.
// Tokenless requests act as the built-in "default" tenant, keeping
// pre-tenancy clients working unchanged. See api/README.md
// ("Authentication and tenancy") and docs/ARCHITECTURE.md ("Tenancy").
//
// -cluster FILE runs the daemon as part of a distributed xseed cluster
// described by one shared topology file (replicas, router address, node
// addresses). With -cluster-node ID it serves as that node: the synopsis
// registry is partitioned across nodes by consistent hashing on the
// (tenant, name) key, each node streams its primaries' delta logs to
// warm standbys, and requests for synopses owned elsewhere answer a
// typed moved error (HTTP 421) naming the owner. With -router it runs
// the membership authority instead: health checks, ring epochs, join
// activation, and a retrying proxy for thin clients — never on the
// replication path. Node listen addresses come from the topology file,
// and -store-dir is required on nodes (replication is log shipping).
// client.NewCluster is the partition-aware SDK; see docs/ARCHITECTURE.md
// ("Cluster") and docs/PROTOCOL.md §4.10 for the replication wire format.
//
// -xtp ADDR opens a second listener serving the same registry over xtp,
// a length-prefixed binary protocol with request pipelining for
// latency-sensitive optimizer traffic (estimates, feedback, stats — the
// same api types and error taxonomy as HTTP, at a fraction of the
// framing cost). The wire format is specified in docs/PROTOCOL.md;
// client.DialXTP is the SDK backend. Both listeners drain in parallel on
// graceful shutdown.
//
// Observability: every request is logged through log/slog (-log-format
// json for machine-parseable access logs, -log-level to filter) with an
// X-Request-Id that is accepted from or issued to the client and echoed on
// the response. GET /metrics exposes counters, gauges, and latency/accuracy
// histograms for every layer — HTTP, estimate stages, caches, rebalancer,
// store — reading the same atomics /v1/stats reports. -pprof ADDR starts
// net/http/pprof on a separate admin-only listener; see the "Observing
// xseedd" section of the top-level README.
package main

import (
	"fmt"
	"os"

	"xseed/internal/server"
)

func main() {
	if err := server.RunCLI("xseedd", os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "xseedd:", err)
		os.Exit(1)
	}
}
