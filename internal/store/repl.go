package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"xseed"
)

// Replication support: a primary exports its durable state per synopsis —
// the base snapshot verbatim and delta-log byte ranges at record
// boundaries — and a standby imports them, adopting the primary's
// generation numbers. Because both sides move verbatim file bytes, a
// caught-up standby's (base, log) pair is bit-identical to the primary's:
// replaying it yields the same synopsis, which is what makes failover
// estimates reproducible. The delta log doubles as the per-target
// replication queue — senders tail it at their own acked cursors, so a
// slow standby lags without ever backpressuring the write path.

// ErrSeqMismatch reports that a replication operation addressed a
// generation the store is not on: the primary compacted (new seq), the
// standby lost its copy, or a segment offset diverged from the log end.
// The sender recovers by re-shipping the base.
var ErrSeqMismatch = errors.New("store: replication generation mismatch")

// BaseMeta is the manifest metadata that travels with a shipped base.
type BaseMeta struct {
	Source  string
	Created time.Time
	Budget  int    // last applied SetBudget total (0 = never)
	Ver     uint64 // cache-scope version to resume from
}

// BaseExport is one synopsis's base snapshot as shipped to a standby:
// the generation number, its metadata, and the base file bytes verbatim.
type BaseExport struct {
	Seq  uint64
	Meta BaseMeta
	Data []byte
}

// Tail reports a synopsis's current generation and delta-log size — the
// position a replication sender targets. ok is false when the synopsis is
// not persisted here.
func (st *Store) Tail(name string) (seq uint64, size int64, ok bool) {
	s, err := st.syn(name)
	if err != nil {
		return 0, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq, s.logSize, true
}

// ReadSegment reads up to max bytes of the delta log of generation seq
// starting at byte offset off. Offsets at acked positions are record
// boundaries, and the log is append-only within a generation, so the
// returned bytes are always whole records. A generation swap (compaction)
// between the offset being taken and the read lands as ErrSeqMismatch.
func (st *Store) ReadSegment(name string, seq uint64, off, max int64) ([]byte, error) {
	s, err := st.syn(name)
	if err != nil {
		return nil, ErrSeqMismatch
	}
	s.mu.Lock()
	if s.seq != seq {
		s.mu.Unlock()
		return nil, ErrSeqMismatch
	}
	size := s.logSize
	path := filepath.Join(s.dir, deltaFile(seq))
	s.mu.Unlock()
	if off >= size {
		return nil, nil
	}
	n := size - off
	if max > 0 && n > max {
		n = max
	}
	f, err := os.Open(path)
	if err != nil {
		// Compaction can remove the old generation's log between the seq
		// check and the open; the sender restarts from the new base.
		if os.IsNotExist(err) {
			return nil, ErrSeqMismatch
		}
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf); err != nil {
		return nil, fmt.Errorf("store: read segment %q seq %d off %d: %w", name, seq, off, err)
	}
	s.mu.Lock()
	same := s.seq == seq
	s.mu.Unlock()
	if !same {
		return nil, ErrSeqMismatch
	}
	return buf, nil
}

// ExportBase reads a synopsis's current base snapshot verbatim, with the
// generation and metadata a standby needs to adopt it.
func (st *Store) ExportBase(name string) (BaseExport, error) {
	s, err := st.syn(name)
	if err != nil {
		return BaseExport{}, err
	}
	st.manMu.Lock()
	me, ok := st.man.Synopses[name]
	var meta BaseMeta
	if ok {
		meta = BaseMeta{Source: me.Source, Created: me.Created, Budget: me.Budget, Ver: me.Ver}
	}
	st.manMu.Unlock()
	if !ok {
		return BaseExport{}, fmt.Errorf("store: synopsis %q not in manifest", name)
	}
	s.mu.Lock()
	seq := s.seq
	path := filepath.Join(s.dir, baseFile(seq))
	s.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return BaseExport{}, ErrSeqMismatch
		}
		return BaseExport{}, err
	}
	s.mu.Lock()
	same := s.seq == seq
	s.mu.Unlock()
	if !same {
		return BaseExport{}, ErrSeqMismatch
	}
	return BaseExport{Seq: seq, Meta: meta, Data: data}, nil
}

// ImportBase installs a shipped base snapshot as the synopsis's current
// generation on a standby: snapshot bytes written verbatim (validated
// first), a fresh empty delta log under the primary's seq, manifest
// flipped last. It returns the parsed synopsis as a Loaded so the registry
// can host the warm replica. Mirrors SaveBase's sequencing, except the
// generation number is adopted from the primary instead of incremented.
func (st *Store) ImportBase(name string, seq uint64, meta BaseMeta, snapshot []byte) (Loaded, error) {
	syn, err := xseed.ReadSynopsis(bytes.NewReader(snapshot))
	if err != nil {
		return Loaded{}, fmt.Errorf("store: import base for %q: %w", name, err)
	}
	st.mu.Lock()
	s, ok := st.syns[name]
	if !ok {
		kten, bare := SplitKey(name)
		rel := tenantDir(kten) + "/" + dirFor(bare)
		s = &synStore{name: name, rel: rel, dir: filepath.Join(st.dir, "synopses", filepath.FromSlash(rel))}
		st.syns[name] = s
	}
	st.mu.Unlock()

	s.genMu.Lock()
	defer s.genMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	st.flushPendingLocked(s) // settle queued records before the swap
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		st.m.baseErrs.Inc()
		return Loaded{}, err
	}
	start := time.Now()
	path := filepath.Join(s.dir, baseFile(seq))
	if err := writeFileAtomic(path, snapshot); err != nil {
		st.m.baseErrs.Inc()
		return Loaded{}, err
	}
	lf, err := os.OpenFile(filepath.Join(s.dir, deltaFile(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		st.m.baseErrs.Inc()
		return Loaded{}, err
	}
	ten, bare := SplitKey(name)
	me := &ManifestEntry{
		Dir:     s.rel,
		Seq:     seq,
		Source:  meta.Source,
		Created: meta.Created,
		Budget:  meta.Budget,
		Ver:     meta.Ver,
	}
	if ten != DefaultTenant {
		me.Tenant, me.Name = ten, bare
	}
	if err := st.flipManifest(name, me); err != nil {
		lf.Close()
		st.m.baseErrs.Inc()
		return Loaded{}, err
	}
	st.m.baseSaves.Inc()
	st.m.baseBytes.Add(uint64(len(snapshot)))
	st.m.baseNs.Observe(time.Since(start).Nanoseconds())
	oldSeq := s.seq
	if s.log != nil {
		s.log.Close()
	}
	s.log = lf
	s.logSize = 0
	s.deltaCount = 0
	s.baseSize = int64(len(snapshot))
	s.seq = seq
	if oldSeq != seq && oldSeq != 0 {
		os.Remove(filepath.Join(s.dir, baseFile(oldSeq)))
		os.Remove(filepath.Join(s.dir, deltaFile(oldSeq)))
	}
	return Loaded{
		Name:    name,
		Syn:     syn,
		Source:  meta.Source,
		Created: meta.Created,
		Budget:  meta.Budget,
		Ver:     meta.Ver,
	}, nil
}

// AppendSegment appends a shipped run of delta-log records verbatim at
// byte offset off of generation seq, validating record framing and
// checksums before a byte lands in the log. A segment entirely at or
// before the current log end is a duplicate retransmit: acked as applied
// (newSize unchanged) without touching the log. A generation or offset
// divergence is ErrSeqMismatch — the sender re-ships the base.
func (st *Store) AppendSegment(name string, seq uint64, off int64, data []byte) (newSize int64, records int, err error) {
	s, serr := st.syn(name)
	if serr != nil {
		return 0, 0, ErrSeqMismatch
	}
	res, err := scanLog(bytes.NewReader(data), -1, nil)
	if err != nil {
		return 0, 0, err
	}
	if res.Torn || res.Good != int64(len(data)) {
		return 0, 0, fmt.Errorf("store: segment for %q is not whole records (%s)", name, res.TornWhy)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.flushPendingLocked(s) // offsets compare against the durable log end
	if s.seq != seq {
		return 0, 0, ErrSeqMismatch
	}
	if off+int64(len(data)) <= s.logSize {
		return s.logSize, 0, nil // duplicate retransmit
	}
	if off != s.logSize {
		return 0, 0, ErrSeqMismatch
	}
	if s.log == nil {
		st.m.appendErrs.Inc()
		return 0, 0, fmt.Errorf("store: synopsis %q has no open log", name)
	}
	start := time.Now()
	// Segments are already sender-side batches, so a durable standby syncs
	// them inline even in batch mode — no extra window buys anything. A
	// failed segment leaves the log at s.logSize, where the retransmit
	// lands.
	if err := st.writeLocked(s, data, st.opts.Fsync != FsyncOff); err != nil {
		return 0, 0, fmt.Errorf("store: append segment for %q: %w", name, err)
	}
	st.m.appends.Add(uint64(res.Records))
	st.m.appendBytes.Add(uint64(len(data)))
	st.m.appendNs.Observe(time.Since(start).Nanoseconds())
	s.logSize += int64(len(data))
	s.deltaCount += int64(res.Records)
	return s.logSize, res.Records, nil
}

// ReplaySegment applies a validated segment's records onto a warm
// in-memory synopsis — the standby's apply loop, run after AppendSegment
// made the same bytes durable. The caller serializes it with everything
// else mutating syn (the registry's entry lock).
func ReplaySegment(syn *xseed.Synopsis, data []byte) (records int, err error) {
	res, err := scanLog(bytes.NewReader(data), -1, func(rec deltaRecord) error {
		return applyRecord(syn, rec)
	})
	if err != nil {
		return res.Records, err
	}
	if res.Torn || res.Good != int64(len(data)) {
		return res.Records, fmt.Errorf("store: segment is not whole records (%s)", res.TornWhy)
	}
	return res.Records, nil
}
