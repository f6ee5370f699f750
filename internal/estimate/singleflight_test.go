package estimate

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotEPTSingleflight: many goroutines triggering a snapshot's lazy
// EPT build get one construction and the same root. The build hook blocks
// the first builder until the others are queued behind it, so a redundant
// concurrent build would be counted (and, without the singleflight, raced).
func TestSnapshotEPTSingleflight(t *testing.T) {
	_, k, _, _ := fig2(t)
	sn := NewSnapshot(k, k.Dict(), Options{})

	const readers = 8
	var builds atomic.Int32
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	sn.buildHook = func() {
		builds.Add(1)
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-release
	}

	roots := make([]*EPTNode, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			roots[i], _ = sn.EPT()
		}(i)
	}
	<-arrived
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("snapshot ran %d EPT builds, want exactly 1", got)
	}
	for i := 1; i < readers; i++ {
		if roots[i] != roots[0] {
			t.Fatalf("reader %d got a different EPT root", i)
		}
	}
}
