package store

import (
	"fmt"
	"sync"
	"time"
)

// Pending is the durability handle for one group-committed record: Wait
// blocks until the record's batch has been written and fsynced, returning
// the flush outcome. A flush error fans out to every waiter in the batch —
// each acked caller learns its record may not be durable, not just the
// goroutine whose enqueue happened to trigger the flush.
type Pending struct {
	done chan struct{}
	err  error
}

// Wait blocks until the record's batch is durable (no-op if it already is).
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

// settled is the shared already-durable handle returned by non-batch modes.
var settled = func() *Pending {
	p := &Pending{done: make(chan struct{})}
	close(p.done)
	return p
}()

// committer is the per-store group-commit flusher: one goroutine that
// flushes every dirty synopsis's pending buffer with one write + one fsync
// each. An enqueue into an idle store is flushed as soon as it wakes the
// committer, so a lone record pays one fsync and no window. While the store
// is busy, flushes start at least one batch window (Options.BatchLatency)
// apart: whatever is enqueued during a flush or in the window after it
// coalesces into the next one.
type committer struct {
	st *Store

	mu    sync.Mutex
	dirty map[*synStore]struct{}

	wake    chan struct{} // cap 1: first enqueue after an idle period
	quit    chan struct{}
	stopped chan struct{}
	once    sync.Once
}

func newCommitter(st *Store) *committer {
	cm := &committer{
		st:      st,
		dirty:   make(map[*synStore]struct{}),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go cm.run()
	return cm
}

// markDirty registers s for the next flush round. Called with s.mu held or
// not — the dirty set has its own lock.
func (cm *committer) markDirty(s *synStore) {
	cm.mu.Lock()
	cm.dirty[s] = struct{}{}
	cm.mu.Unlock()
	select {
	case cm.wake <- struct{}{}:
	default:
	}
}

// stop flushes everything enqueued so far and terminates the goroutine.
func (cm *committer) stop() {
	cm.once.Do(func() { close(cm.quit) })
	<-cm.stopped
}

func (cm *committer) run() {
	defer close(cm.stopped)
	// last is when the last flush that wrote something started; the next
	// one starts BatchLatency after it, or at once if that is past.
	var last time.Time
	for {
		select {
		case <-cm.wake:
			if wait := cm.st.opts.BatchLatency - time.Since(last); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-cm.quit:
					t.Stop()
				}
			}
			start := time.Now()
			// A wake can find nothing to write: its token came from an
			// append whose record the flush before already took. Such a
			// wake leaves last alone, or the next record would wait out a
			// whole window.
			if cm.flushAll() {
				last = start
			}
		case <-cm.quit:
			cm.flushAll()
			return
		}
	}
}

// flushAll flushes every dirty synopsis and reports whether any had records
// to write. Holding s.mu across the write + fsync is deliberate: enqueuers
// arriving mid-flush queue on the mutex, land in the next batch, and re-wake
// the committer via markDirty.
func (cm *committer) flushAll() (wrote bool) {
	cm.mu.Lock()
	dirty := cm.dirty
	cm.dirty = make(map[*synStore]struct{})
	cm.mu.Unlock()
	for s := range dirty {
		s.mu.Lock()
		if cm.st.flushPendingLocked(s) {
			wrote = true
		}
		s.mu.Unlock()
	}
	return wrote
}

// flushPendingLocked writes and fsyncs s's pending batch, settles every
// waiter with the outcome, and reports whether there was a batch. Caller
// holds s.mu. Generation-changing paths (SaveBase, compaction's commit
// step, Remove, Close, ImportBase) call this first so no enqueued record is
// stranded against a superseded log file.
func (st *Store) flushPendingLocked(s *synStore) bool {
	if len(s.waiters) == 0 {
		return false
	}
	buf, recs, waiters := s.pending, s.pendingN, s.waiters
	s.pending, s.pendingN, s.waiters = nil, 0, nil
	err := st.writeBatchLocked(s, buf, recs)
	for _, p := range waiters {
		p.err = err
		close(p.done)
	}
	return true
}

func (st *Store) writeBatchLocked(s *synStore, buf []byte, recs int) error {
	if s.log == nil {
		st.m.appendErrs.Inc()
		return fmt.Errorf("store: synopsis %q has no open log", s.name)
	}
	start := time.Now()
	if err := st.writeLocked(s, buf, true); err != nil {
		return fmt.Errorf("store: flush %d-record batch for %q: %w", recs, s.name, err)
	}
	st.m.batchEvents.Observe(int64(recs))
	st.m.batchFlushNs.Observe(time.Since(start).Nanoseconds())
	st.m.appends.Add(uint64(recs))
	st.m.appendBytes.Add(uint64(len(buf)))
	st.m.appendNs.Observe(time.Since(start).Nanoseconds())
	s.logSize += int64(len(buf))
	s.deltaCount += int64(recs)
	return nil
}

// writeLocked appends buf, whole records, to s's open log and fsyncs it when
// sync is set; the caller holds s.mu and advances s.logSize once the write
// counts. A failed write can leave part of buf in the file, and a failed
// fsync leaves all of it of unknown durability. Either way the file is cut
// back to s.logSize, so that the next write lands on a record boundary: a
// torn record in mid-log would make recovery drop every record behind it,
// acked ones included. If the cut fails too, the log is closed, so that
// later appends fail instead of acking records that could never replay.
func (st *Store) writeLocked(s *synStore, buf []byte, sync bool) error {
	_, err := s.log.Write(buf)
	if err == nil && sync {
		start := time.Now()
		if err = s.log.Sync(); err == nil {
			st.m.fsyncs.Inc()
			st.m.fsyncNs.Observe(time.Since(start).Nanoseconds())
		}
	}
	if err == nil {
		return nil
	}
	st.m.appendErrs.Inc()
	if terr := s.log.Truncate(s.logSize); terr != nil {
		s.log.Close()
		s.log = nil
		return fmt.Errorf("%w (cutting the log back to %d bytes failed too, so it is closed: %v)", err, s.logSize, terr)
	}
	return err
}
