package server

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"

	"xseed/api"
	"xseed/internal/cluster"
	"xseed/internal/store"
)

// ClusterOptions runs the daemon as one node of a distributed xseed
// cluster (the -cluster/-cluster-node flags): the synopsis registry is
// partitioned across the configured nodes by consistent hashing on the
// (tenant, name) store key, this node replicates its primaries' delta
// logs to warm standbys, and requests for synopses owned elsewhere answer
// with a typed moved error naming the owner. Requires a store
// (Config.StoreDir): replication is log shipping.
type ClusterOptions struct {
	Config cluster.Config // shared topology file (cluster.LoadConfigFile)
	NodeID string         // this node's ID within Config.Nodes
}

// attachCluster wires the cluster manager and standby receiver into a
// freshly built server (New calls it after store recovery, so the
// manager's first ownership sweep sees every restored synopsis).
func (s *Server) attachCluster(opts *ClusterOptions) error {
	if s.st == nil {
		return fmt.Errorf("cluster mode requires a store (set -store-dir): replication ships the delta log")
	}
	node, ok := opts.Config.Node(opts.NodeID)
	if !ok {
		return fmt.Errorf("cluster: node %q is not in the cluster config", opts.NodeID)
	}
	if node.Repl == "" {
		return fmt.Errorf("cluster: node %q has no repl listen address", opts.NodeID)
	}
	host := &clusterHost{s: s}
	mgr, err := cluster.NewManager(opts.Config, opts.NodeID, host,
		filepath.Join(s.st.Dir(), "repl"), s.om, s.log)
	if err != nil {
		return err
	}
	s.cl = mgr
	s.svc.cl = mgr // the xtp listener shares s.svc, so it gains ownership too
	s.replAddr = node.Repl
	s.replSrv = cluster.NewReplServer(opts.NodeID, host, mgr.RingJSON, s.log)
	return nil
}

// handleClusterRing serves this node's view of the partition ring.
func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	data, aerr := s.svc.ring()
	if aerr != nil {
		writeAPIError(w, r, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleClusterLag serves the replication lag this node observes toward
// each of its standby targets (the router polls it to activate joiners).
func (s *Server) handleClusterLag(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		writeAPIError(w, r, api.Errorf(api.CodeConflict, "server is not part of a cluster (start with -cluster)"))
		return
	}
	writeJSON(w, http.StatusOK, api.ClusterLag{Node: s.cl.Self(), Targets: s.cl.Lag()})
}

// clusterHost adapts the registry + store pair to cluster.Host. It is the
// only bridge between the cluster layer and the serving node, and the
// reason internal/cluster never imports internal/server.
type clusterHost struct {
	s *Server
}

func (h *clusterHost) PrimaryKeys() []string { return h.s.reg.PrimaryKeys() }
func (h *clusterHost) AllKeys() []string     { return h.s.reg.Keys() }

func (h *clusterHost) SetPrimary(key string, primary bool) bool {
	e, err := h.s.reg.Get(key)
	if err != nil {
		return false
	}
	changed := e.replica.Swap(!primary) == primary
	if changed {
		// Role flips move the entry in or out of the budget domains (replicas
		// never plan locally — their budget records replicate in).
		h.s.reg.Replan()
	}
	return changed
}

func (h *clusterHost) Tail(key string) (uint64, int64, bool) { return h.s.st.Tail(key) }

func (h *clusterHost) ReadSegment(key string, seq uint64, off, max int64) ([]byte, error) {
	return h.s.st.ReadSegment(key, seq, off, max)
}

func (h *clusterHost) ExportBase(key string) (store.BaseExport, error) {
	return h.s.st.ExportBase(key)
}

func (h *clusterHost) ImportBase(key string, seq uint64, meta store.BaseMeta, snapshot []byte) error {
	l, err := h.s.st.ImportBase(key, seq, meta, snapshot)
	if err != nil {
		return err
	}
	_, err = h.s.reg.AdoptReplica(l)
	return err
}

func (h *clusterHost) ApplySegment(key string, seq uint64, off int64, data []byte) (int64, error) {
	newSize, records, err := h.s.st.AppendSegment(key, seq, off, data)
	if err != nil {
		return 0, err
	}
	if records == 0 {
		return newSize, nil // duplicate retransmit: already applied in memory
	}
	e, gerr := h.s.reg.Get(key)
	if gerr != nil {
		// Durable but not hosted (a replica whose base import was lost to a
		// restart-and-recover race): resync from the base.
		return 0, store.ErrSeqMismatch
	}
	e.mu.Lock()
	_, rerr := store.ReplaySegment(e.syn, data)
	if rerr == nil {
		e.invalidate()
	}
	e.mu.Unlock()
	if rerr != nil {
		return 0, rerr
	}
	return newSize, nil
}

func (h *clusterHost) DeleteReplica(key string) error {
	err := h.s.reg.Delete(key)
	if err != nil && errors.Is(err, ErrNotFound) {
		return nil // idempotent: the delete may be a retransmit
	}
	return err
}
