// Package store is xseedd's durability layer: a manifest-backed directory of
// versioned synopsis snapshots with append-only delta logs, so a
// feedback-heavy daemon persists each mutation in O(delta) bytes instead of
// rewriting full synopses, and reloads its whole registry after a crash.
//
// Layout:
//
//	<dir>/manifest.json                    the persistent registry
//	<dir>/synopses/<sanitized>/
//	    base-<seq>.xsyn                    full snapshot (versioned stream)
//	    delta-<seq>.log                    checksummed mutation log since base
//
// Writes are crash-safe by construction: bases and the manifest are written
// to temp files and renamed; delta records are framed, checksummed, and
// appended in single writes, and recovery tolerates a torn tail. Compaction
// (see compact.go) folds a log into a fresh base under a new sequence number
// and flips the manifest last, so every crash window leaves either the old
// (base, log) pair or the new one fully intact.
package store

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xseed"
	"xseed/internal/logx"
	"xseed/internal/obs"
)

// FsyncMode selects the delta-log durability discipline.
type FsyncMode int

const (
	// FsyncOff never syncs the delta log. An O_APPEND write survives
	// kill -9 without it (the page cache belongs to the kernel, not the
	// process); only a machine crash loses buffered records.
	FsyncOff FsyncMode = iota

	// FsyncBatch group-commits: appends enqueue into a per-synopsis buffer
	// and a store-wide committer goroutine flushes each buffer with one
	// write + one fsync. An append to an idle store is flushed at once;
	// while the store is busy, flushes start Options.BatchLatency apart, so
	// the appends made meanwhile share the next fsync. Callers block until
	// their record's batch is durable, so the ack contract matches
	// FsyncEvery while fsyncs/record drops by the batch factor.
	FsyncBatch

	// FsyncEvery syncs after every append call — machine-crash durable,
	// but feedback-heavy traffic pays one fsync per feedback round, and
	// other mutations one each.
	FsyncEvery
)

// ParseFsyncMode maps a -store-fsync flag value to a mode. "true"/"false"
// keep the pre-batch boolean flag spellings working.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "off", "false":
		return FsyncOff, nil
	case "batch":
		return FsyncBatch, nil
	case "every", "true":
		return FsyncEvery, nil
	}
	return FsyncOff, fmt.Errorf("store: unknown fsync mode %q (want off, batch, or every)", s)
}

func (m FsyncMode) String() string {
	switch m {
	case FsyncBatch:
		return "batch"
	case FsyncEvery:
		return "every"
	}
	return "off"
}

// Options tunes a store.
type Options struct {
	// CompactRatio triggers background compaction when a synopsis's delta
	// log exceeds ratio × its base snapshot size. <= 0 means the default
	// 0.5; tests set it high to disable ratio-driven compaction.
	CompactRatio float64

	// CompactMinBytes is the delta-log size below which ratio compaction is
	// skipped regardless (folding a few hundred bytes of deltas buys
	// nothing). <= 0 means the default 4096.
	CompactMinBytes int64

	// Fsync selects the delta-log durability mode. The zero value is
	// FsyncOff.
	Fsync FsyncMode

	// BatchLatency spaces FsyncBatch flushes: one starts at least
	// BatchLatency after the one before, so it bounds how long a record
	// waits before its batch's fsync starts. A record enqueued when no flush
	// has started within the last BatchLatency does not wait at all. <= 0
	// means the default 2ms. Ignored in other modes.
	BatchLatency time.Duration

	// Log receives recovery and compaction events. Nil discards them.
	Log *slog.Logger

	// Metrics receives store counters and latency histograms (see
	// metrics.go). Nil means obs.Disabled: every instrument is a no-op.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.CompactRatio <= 0 {
		o.CompactRatio = 0.5
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 4096
	}
	if o.BatchLatency <= 0 {
		o.BatchLatency = 2 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = logx.Discard()
	}
	if o.Metrics == nil {
		o.Metrics = obs.Disabled
	}
	return o
}

// Store is an open store directory. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	m *metrics

	mu   sync.Mutex // guards syns map membership
	syns map[string]*synStore

	manMu sync.Mutex // guards manifest state + file; acquired after a synStore.mu
	man   *Manifest

	cm *committer // group-commit flusher; non-nil iff opts.Fsync == FsyncBatch
}

// synStore is one synopsis's open persistence state. Its mutex serializes
// appends with each other and with compaction's file swap; the caller-side
// mutation order (the registry's per-entry lock) is preserved because
// appends happen inside that critical section.
type synStore struct {
	name string
	rel  string // manifest-relative dir: "<tenant>/<sanitized>"
	dir  string // absolute

	// genMu serializes generation changes — SaveBase, Remove, CompactNow —
	// with each other for this synopsis (two of them interleaving could both
	// claim sequence seq+1 and clobber each other's files). Appends only
	// need mu. Lock order: genMu, then mu, then Store.manMu.
	genMu sync.Mutex

	mu          sync.Mutex
	seq         uint64
	log         *os.File // delta-<seq>.log, opened O_APPEND
	logSize     int64    // durable bytes: advances when records hit the file
	deltaCount  int64    // records appended or replayed since base
	baseSize    int64
	compacting  bool
	compactions int64

	// Group commit (FsyncBatch): encoded records accumulate in pending and
	// the store's committer writes+fsyncs them as one batch, settling every
	// waiter with the flush outcome. Guarded by mu.
	pending  []byte
	pendingN int
	waiters  []*Pending
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, "synopses"), 0o755); err != nil {
		return nil, err
	}
	man, err := readManifest(dir)
	if os.IsNotExist(err) {
		man = &Manifest{Version: manifestVersion, Synopses: make(map[string]*ManifestEntry)}
		if err := writeManifest(dir, man); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	if man.Version == 1 {
		if err := migrateV1(dir, man, opts.Log); err != nil {
			return nil, err
		}
	}
	st := &Store{dir: dir, opts: opts, man: man, syns: make(map[string]*synStore), m: newMetrics(opts.Metrics)}
	for name, me := range man.Synopses {
		s := &synStore{name: name, rel: me.Dir, dir: filepath.Join(dir, "synopses", filepath.FromSlash(me.Dir)), seq: me.Seq}
		cleanStale(s.dir, me.Seq, opts.Log)
		if err := s.truncateTorn(opts.Log); err != nil {
			return nil, fmt.Errorf("store: recover log for %q: %w", name, err)
		}
		if err := s.openLog(); err != nil {
			return nil, fmt.Errorf("store: open log for %q: %w", name, err)
		}
		if fi, err := os.Stat(filepath.Join(s.dir, baseFile(me.Seq))); err == nil {
			s.baseSize = fi.Size()
		}
		st.syns[name] = s
	}
	if opts.Fsync == FsyncBatch {
		st.cm = newCommitter(st)
	}
	return st, nil
}

// migrateV1 upgrades a pre-tenancy store in place: every synopsis directory
// moves under the default tenant (synopses/<dir> → synopses/default/<dir>)
// with atomic renames, and the version-2 manifest is written last as the
// commit point. Kill -9 at any point leaves either a resumable v1 store
// (renames are idempotent — a directory already at its new home is skipped)
// or a complete v2 store; nothing is copied, so no state is ever duplicated
// and no crash window loses a generation.
func migrateV1(dir string, m *Manifest, lg *slog.Logger) error {
	lg.Info("migrating pre-tenancy store layout to v2", "dir", dir, "synopses", len(m.Synopses))
	tdir := filepath.Join(dir, "synopses", DefaultTenant)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	for key, me := range m.Synopses {
		rel := me.Dir
		if strings.ContainsRune(rel, '/') {
			continue // already two-level; nothing to move
		}
		oldp := filepath.Join(dir, "synopses", rel)
		newp := filepath.Join(tdir, rel)
		if _, err := os.Stat(oldp); err == nil {
			if err := os.Rename(oldp, newp); err != nil {
				return fmt.Errorf("store: migrate %q: %w", key, err)
			}
		} else if _, err := os.Stat(newp); err != nil {
			// A previous partial migration would have left the directory at
			// exactly one of the two homes; at neither means the store was
			// already broken. Refuse rather than silently dropping data.
			return fmt.Errorf("store: migrate %q: synopsis directory %s missing", key, rel)
		}
		me.Dir = DefaultTenant + "/" + rel
	}
	if err := syncDir(tdir); err != nil {
		return err
	}
	if err := syncDir(filepath.Join(dir, "synopses")); err != nil {
		return err
	}
	m.Version = manifestVersion
	return writeManifest(dir, m)
}

// truncateTorn scans the current delta log and truncates it to its trusted
// prefix. A torn tail must be cut off before the log is reopened O_APPEND:
// records appended after garbage would themselves be unreachable — replay
// stops at the first malformed record — so every later mutation would be
// silently lost at the restart after next. Truncating also means a live
// store's log is never torn, so compaction never has to refuse one.
func (s *synStore) truncateTorn(lg *slog.Logger) error {
	path := filepath.Join(s.dir, deltaFile(s.seq))
	res, err := scanLogFile(path, -1, nil)
	if err != nil {
		return err
	}
	s.deltaCount = int64(res.Records)
	if res.Trailing == 0 {
		return nil
	}
	lg.Warn("truncating torn delta log tail",
		"synopsis", s.name, "why", res.TornWhy,
		"droppedBytes", res.Trailing, "trustedRecords", res.Records)
	return os.Truncate(path, res.Good)
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// cleanStale removes temp files and base/delta files from sequences other
// than the live one — debris from a crash mid-compaction. The manifest flip
// is the commit point, so anything off-sequence is either an abandoned new
// generation (crash before the flip) or a superseded old one (crash after).
func cleanStale(dir string, liveSeq uint64, lg *slog.Logger) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		keep := name == baseFile(liveSeq) || name == deltaFile(liveSeq)
		if keep {
			continue
		}
		lg.Info("removing stale store file", "path", filepath.Join(dir, name))
		os.Remove(filepath.Join(dir, name))
	}
}

// openLog opens (creating if needed) the current delta log for appending and
// records its size. Caller owns s.mu or exclusive access.
func (s *synStore) openLog() error {
	f, err := os.OpenFile(filepath.Join(s.dir, deltaFile(s.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if s.log != nil {
		s.log.Close()
	}
	s.log = f
	s.logSize = fi.Size()
	return nil
}

func (st *Store) syn(name string) (*synStore, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.syns[name]
	if !ok {
		return nil, fmt.Errorf("store: synopsis %q not persisted", name)
	}
	return s, nil
}

// Loaded is one synopsis recovered by LoadAll.
type Loaded struct {
	Name    string
	Syn     *xseed.Synopsis
	Source  string
	Created time.Time
	Budget  int    // last applied SetBudget total (0 = never)
	Ver     uint64 // cache-scope version to resume from
	Replay  int    // delta records replayed on top of the base
	Torn    bool   // the log still ends torn (Open truncates tails, so
	// this only fires if the file changed after open)
}

// LoadAll recovers every synopsis in the manifest: reads its base snapshot,
// replays its delta log (tolerating a torn tail), and returns them in name
// order. A synopsis whose base is unreadable is a hard error — silently
// dropping registered data is worse than refusing to start.
func (st *Store) LoadAll() ([]Loaded, error) {
	st.manMu.Lock()
	names := st.man.names()
	st.manMu.Unlock()
	out := make([]Loaded, 0, len(names))
	for _, name := range names {
		l, err := st.loadOne(name)
		if err != nil {
			return nil, fmt.Errorf("store: load %q: %w", name, err)
		}
		out = append(out, l)
	}
	return out, nil
}

func (st *Store) loadOne(name string) (Loaded, error) {
	st.manMu.Lock()
	me, ok := st.man.Synopses[name]
	if ok {
		cp := *me
		me = &cp
	}
	st.manMu.Unlock()
	if !ok {
		return Loaded{}, fmt.Errorf("not in manifest")
	}
	s, err := st.syn(name)
	if err != nil {
		return Loaded{}, err
	}
	syn, res, budget, err := loadFrom(s.dir, me, -1)
	if err != nil {
		return Loaded{}, err
	}
	s.mu.Lock()
	s.deltaCount = int64(res.Records)
	s.mu.Unlock()
	if res.Torn {
		st.opts.Log.Warn("delta log torn tail",
			"synopsis", name, "why", res.TornWhy,
			"trustedBytes", res.Good, "trustedRecords", res.Records)
	}
	return Loaded{
		Name:    name,
		Syn:     syn,
		Source:  me.Source,
		Created: me.Created,
		Budget:  budget,
		Ver:     me.Ver + uint64(res.Records),
		Replay:  res.Records,
		Torn:    res.Torn,
	}, nil
}

// loadFrom builds a synopsis from a directory's base snapshot plus at most
// limit bytes of its delta log (-1: the whole log). It is the one recovery
// path, shared by startup, compaction, and fsck.
func loadFrom(dir string, me *ManifestEntry, limit int64) (*xseed.Synopsis, replayResult, int, error) {
	f, err := os.Open(filepath.Join(dir, baseFile(me.Seq)))
	if err != nil {
		return nil, replayResult{}, 0, err
	}
	syn, err := xseed.ReadSynopsis(f)
	f.Close()
	if err != nil {
		return nil, replayResult{}, 0, fmt.Errorf("base snapshot: %w", err)
	}
	budget := me.Budget
	var res replayResult
	// Replay batches publication: applying a long log record-by-record
	// would otherwise rebuild the synopsis's estimation snapshot per record
	// (O(records × synopsis) instead of O(delta)); nothing estimates during
	// recovery, so one snapshot at the end is equivalent.
	err = syn.Replay(func() error {
		var scanErr error
		res, scanErr = scanLogFile(filepath.Join(dir, deltaFile(me.Seq)), limit, func(rec deltaRecord) error {
			if rec.Op == opBudget {
				budget = rec.Bytes
			}
			return applyRecord(syn, rec)
		})
		return scanErr
	})
	if err != nil {
		return nil, res, 0, err
	}
	return syn, res, budget, nil
}

// SaveBase persists a full snapshot of the synopsis as a fresh generation:
// new base file, empty delta log, manifest flipped last. It both registers a
// new synopsis and replaces an existing one (snapshot upload, compaction's
// final step reuses the same sequencing). The caller must guarantee syn is
// not concurrently mutated (the registry serializes this on its entry lock).
func (st *Store) SaveBase(name string, syn *xseed.Synopsis, source string, created time.Time, budget int, ver uint64) error {
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
	// Settle any queued group-commit records before the generation swap:
	// their waiters were promised this generation's log, which is about to
	// be superseded (the new base snapshot already reflects them in memory).
	st.flushPendingLocked(s)
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		st.m.baseErrs.Inc()
		return err
	}
	start := time.Now()
	newSeq := s.seq + 1
	n, err := writeBase(s.dir, newSeq, syn)
	if err != nil {
		st.m.baseErrs.Inc()
		return err
	}
	// Fresh empty delta log for the new generation.
	lf, err := os.OpenFile(filepath.Join(s.dir, deltaFile(newSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		st.m.baseErrs.Inc()
		return err
	}
	ten, bare := SplitKey(name)
	me := &ManifestEntry{
		Dir:     s.rel,
		Seq:     newSeq,
		Source:  source,
		Created: created,
		Budget:  budget,
		Ver:     ver,
	}
	if ten != DefaultTenant {
		me.Tenant, me.Name = ten, bare
	}
	if err := st.flipManifest(name, me); err != nil {
		lf.Close()
		st.m.baseErrs.Inc()
		return err
	}
	st.m.baseSaves.Inc()
	st.m.baseBytes.Add(uint64(n))
	st.m.baseNs.Observe(time.Since(start).Nanoseconds())
	oldSeq := s.seq
	if s.log != nil {
		s.log.Close()
	}
	s.log = lf
	s.logSize = 0
	s.deltaCount = 0
	s.baseSize = n
	s.seq = newSeq
	if oldSeq != newSeq {
		os.Remove(filepath.Join(s.dir, baseFile(oldSeq)))
		os.Remove(filepath.Join(s.dir, deltaFile(oldSeq)))
	}
	return nil
}

func writeBase(dir string, seq uint64, syn *xseed.Synopsis) (int64, error) {
	path := filepath.Join(dir, baseFile(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := syn.WriteTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return n, syncDir(dir)
}

// flipManifest atomically updates (or, with me == nil, removes) one entry.
func (st *Store) flipManifest(name string, me *ManifestEntry) error {
	st.manMu.Lock()
	defer st.manMu.Unlock()
	if me == nil {
		delete(st.man.Synopses, name)
	} else {
		st.man.Synopses[name] = me
	}
	return writeManifest(st.dir, st.man)
}

// AppendFeedback persists one feedback-driven HET mutation in O(delta)
// bytes. Call it inside the same critical section that applied the mutation
// in memory, so the log order matches the apply order.
func (st *Store) AppendFeedback(name string, d xseed.HETDelta) error {
	p, err := st.AppendFeedbackEnq(name, d)
	if err != nil {
		return err
	}
	return p.Wait()
}

// AppendFeedbackEnq is AppendFeedback split for group commit, for a round
// of deltas: it persists them as consecutive records in order, inside the
// caller's apply-order critical section so that log order matches apply
// order, and returns one Pending the caller waits on AFTER leaving that
// critical section — holding a hot synopsis's entry lock across the fsync
// would cap it at one round per flush. It persists every delta or, on an
// error, none: each record is encoded before any is written or enqueued. In
// FsyncBatch mode the records join the pending batch under one lock, so a
// flush never splits the round; in the other modes they reach the log in
// one write (and in FsyncEvery one fsync), durable on return, and the
// handle's Wait is free.
func (st *Store) AppendFeedbackEnq(name string, ds ...xseed.HETDelta) (*Pending, error) {
	if len(ds) == 0 {
		return settled, nil
	}
	recs := make([]deltaRecord, len(ds))
	for i := range ds {
		recs[i] = deltaRecord{Op: opFeedback, HET: &ds[i]}
	}
	return st.appendEnq(name, recs...)
}

// AppendSubtree persists an incremental subtree add or remove.
func (st *Store) AppendSubtree(name string, add bool, contextPath []string, xml string) error {
	op := opRemove
	if add {
		op = opAdd
	}
	return st.append(name, deltaRecord{Op: op, Context: contextPath, XML: xml})
}

// AppendBudget persists a SetBudget call (registry rebalancing).
func (st *Store) AppendBudget(name string, totalBytes int) error {
	return st.append(name, deltaRecord{Op: opBudget, Bytes: totalBytes})
}

func (st *Store) append(name string, rec deltaRecord) error {
	p, err := st.appendEnq(name, rec)
	if err != nil {
		return err
	}
	return p.Wait()
}

// appendEnq persists recs as consecutive records, all of them or none. In
// FsyncBatch mode it enqueues them for the committer and returns a live
// Pending; otherwise it writes them with one write (and in FsyncEvery one
// fsync) and returns an already-settled handle.
func (st *Store) appendEnq(name string, recs ...deltaRecord) (*Pending, error) {
	s, err := st.syn(name)
	if err != nil {
		return nil, err
	}
	var buf []byte
	for _, rec := range recs {
		b, err := encodeRecord(rec)
		if err != nil {
			return nil, err
		}
		buf = append(buf, b...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		st.m.appendErrs.Inc()
		return nil, fmt.Errorf("store: synopsis %q has no open log", name)
	}
	if st.cm != nil {
		p := &Pending{done: make(chan struct{})}
		s.pending = append(s.pending, buf...)
		s.pendingN += len(recs)
		s.waiters = append(s.waiters, p)
		st.cm.markDirty(s)
		return p, nil
	}
	start := time.Now()
	if err := st.writeLocked(s, buf, st.opts.Fsync == FsyncEvery); err != nil {
		return nil, fmt.Errorf("store: append %s delta for %q: %w", recs[0].Op, name, err)
	}
	st.m.appends.Add(uint64(len(recs)))
	st.m.appendBytes.Add(uint64(len(buf)))
	st.m.appendNs.Observe(time.Since(start).Nanoseconds())
	s.logSize += int64(len(buf))
	s.deltaCount += int64(len(recs))
	return settled, nil
}

// Remove forgets a synopsis: manifest first (the commit point), then its
// directory.
func (st *Store) Remove(name string) error {
	st.mu.Lock()
	s, ok := st.syns[name]
	if ok {
		delete(st.syns, name)
	}
	st.mu.Unlock()
	if !ok {
		return nil
	}
	s.genMu.Lock()
	defer s.genMu.Unlock()
	s.mu.Lock()
	st.flushPendingLocked(s)
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
	s.mu.Unlock()
	if err := st.flipManifest(name, nil); err != nil {
		return err
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	// Drop the tenant directory too once its last synopsis is gone (fails
	// harmlessly while non-empty).
	os.Remove(filepath.Dir(s.dir))
	return nil
}

// Close flushes and closes every delta log. The store is unusable after.
func (st *Store) Close() error {
	if st.cm != nil {
		st.cm.stop() // final flush of everything enqueued so far
	}
	st.mu.Lock()
	syns := make([]*synStore, 0, len(st.syns))
	for _, s := range st.syns {
		syns = append(syns, s)
	}
	st.mu.Unlock()
	var first error
	for _, s := range syns {
		s.mu.Lock()
		st.flushPendingLocked(s) // stragglers enqueued after the committer stopped
		if s.log != nil {
			if err := s.log.Sync(); err != nil && first == nil {
				first = err
			}
			if err := s.log.Close(); err != nil && first == nil {
				first = err
			}
			s.log = nil
		}
		s.mu.Unlock()
	}
	return first
}

// SynopsisStats is the persistence state of one synopsis.
type SynopsisStats struct {
	Name         string `json:"name"`
	Seq          uint64 `json:"seq"`
	BaseBytes    int64  `json:"baseBytes"`
	DeltaBytes   int64  `json:"deltaBytes"`
	DeltaRecords int64  `json:"deltaRecords"`
	Compactions  int64  `json:"compactions"`
}

// Stats is the store-wide stats payload served under /stats.
type Stats struct {
	Dir      string          `json:"dir"`
	Synopses []SynopsisStats `json:"synopses"`
}

// Stats snapshots every synopsis's persistence state, sorted by name.
func (st *Store) Stats() Stats {
	st.manMu.Lock()
	names := st.man.names()
	st.manMu.Unlock()
	out := Stats{Dir: st.dir}
	for _, name := range names {
		s, err := st.syn(name)
		if err != nil {
			continue
		}
		s.mu.Lock()
		out.Synopses = append(out.Synopses, SynopsisStats{
			Name:         name,
			Seq:          s.seq,
			BaseBytes:    s.baseSize,
			DeltaBytes:   s.logSize,
			DeltaRecords: s.deltaCount,
			Compactions:  s.compactions,
		})
		s.mu.Unlock()
	}
	return out
}
