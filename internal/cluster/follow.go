package cluster

import (
	"context"
	"errors"
	"strings"
	"time"

	"xseed/api"
)

// Follower is the one moved-following retry loop, shared by the router's
// proxy and the partition-aware client (xseed/client.Cluster) over HTTP
// and xtp alike. Each caller sets its own retry budget, backoff schedule,
// and ring source.
type Follower struct {
	// Attempts bounds one call's tries, the first included.
	Attempts int

	// Delay is the sleep before retry attempt n (n ≥ 1).
	Delay func(n int) time.Duration

	// Ring returns the caller's current ring (nil before one is known).
	// Moved hints resolve against it.
	Ring func() *Ring

	// Refresh re-fetches the ring after a moved, unavailable, or transport
	// failure. Nil when something else keeps Ring current (the router's
	// health loop).
	Refresh func(ctx context.Context)
}

// Do runs call against a node until it succeeds, fails finally, or the
// attempts run out; the last failure is returned then. Each attempt
// targets owner()'s node — the ring owner of the request's key — except
// right after a typed moved error: that error's owner hint is followed
// once, for the next attempt only, and the attempt after it falls back to
// the ring owner (a hint from an older ring epoch than the caller's is not
// followed at all). Moved, unavailable, and untyped (transport) errors,
// from owner or call, refresh the ring and retry; any other typed
// *api.Error is final and returns at once, as does ctx's error.
func (f *Follower) Do(ctx context.Context, owner func() (api.RingNode, error), call func(n api.RingNode) error) error {
	var (
		hint    api.RingNode
		hinted  bool
		lastErr error
	)
	for attempt := 0; attempt < f.Attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(f.Delay(attempt)):
			}
		}
		var (
			n   api.RingNode
			err error
		)
		if hinted {
			n, hinted = hint, false
		} else {
			n, err = owner()
		}
		if err == nil {
			if err = call(n); err == nil {
				return nil
			}
		}
		var ae *api.Error
		switch {
		case errors.As(err, &ae) && ae.Code == api.CodeMoved:
			// Ownership flipped under us. The refresh below lets the attempt
			// after the hinted one route from the hash again, so two nodes
			// pointing at each other (a desynced rebalance window) cannot
			// bounce a call for longer than its budget. A hint from a ring
			// older than ours is not followed: that node has not yet applied
			// the epoch we route by, and the node it names may accept the
			// call (say, a create) that the ring owner should get.
			if d, ok := ae.MovedDetail(); ok && d.Owner != "" && !f.older(d.Epoch) {
				hint, hinted = f.resolve(d.Owner), true
			}
		case errors.As(err, &ae) && ae.Code != api.CodeUnavailable:
			return err // typed and not retryable
		case ctx.Err() != nil:
			return ctx.Err()
		}
		if f.Refresh != nil {
			f.Refresh(ctx)
		}
		lastErr = err
	}
	return lastErr
}

// older reports whether a moved error's ring epoch predates the caller's
// ring.
func (f *Follower) older(epoch uint64) bool {
	r := f.Ring()
	return r != nil && epoch < r.Epoch
}

// resolve maps a moved hint — the owner's HTTP base URL — to the owner's
// ring entry, so a call on another transport reaches that node's listener
// for it (an xtp estimate follows the hint to the owner's xtp address). A
// node the ring does not list yet resolves to the bare hinted HTTP address.
func (f *Follower) resolve(owner string) api.RingNode {
	host := owner
	if _, rest, ok := strings.Cut(owner, "://"); ok {
		host = rest
	}
	host = strings.TrimRight(host, "/")
	if r := f.Ring(); r != nil {
		for _, n := range r.Nodes {
			if n.HTTP == host {
				return n
			}
		}
	}
	return api.RingNode{HTTP: host}
}
