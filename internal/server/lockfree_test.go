package server

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xseed"
)

// TestEstimateLockFreeUnderWedgedMutation is the blocking-injection proof of
// the acceptance criterion: after the entry lookup, the estimate path
// acquires no entry mutex. The entry's write lock is held (wedged, as a
// stuck feedback or a slow base-snapshot fsync would) for the whole test;
// batches — cold and warm — must complete promptly
// and match the pinned snapshot's values exactly. Before the snapshot
// refactor this test would deadlock: estimates took the read side of the
// wedged RWMutex.
func TestEstimateLockFreeUnderWedgedMutation(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(64, 0)
	e, err := r.Add("fig2", syn, "test")
	if err != nil {
		t.Fatal(err)
	}

	e.mu.Lock() // wedge every mutator for the duration of the test
	defer e.mu.Unlock()

	queries := []string{"/a/c/s", "/a/c/s/s/t", "//s//p", "/a/c/s[p]/t"}
	sn := syn.Snapshot()
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = sn.EstimateQuery(xseed.MustParseQuery(q))
	}

	done := make(chan error, 1)
	go func() {
		for round := 0; round < 3; round++ {
			items, err := r.EstimateBatch(context.Background(), "fig2", queries, false)
			if err != nil {
				done <- err
				return
			}
			for i := range items {
				if items[i].Estimate != want[i] {
					t.Errorf("%s = %v, want %v", queries[i], items[i].Estimate, want[i])
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("estimate batch blocked behind a wedged mutation lock")
	}
}

// TestEstimateScopeNoStalePollution hammers a registry with concurrent
// estimates, feedback, subtree updates, and aggregate-budget rebalances
// (run under -race), then quiesces and asserts the served estimates equal
// the final snapshot's values bit for bit — twice, so the second round is
// answered from the cache. A stale cache entry leaking across a mutation
// into the live scope (the bug the snapshot-version scopes exist to
// prevent) would surface as a mismatch on either round.
func TestEstimateScopeNoStalePollution(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(4096, 1<<20)
	r.StartRebalancer()
	defer r.Close()
	e, err := r.Add("fig2", syn, "test")
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{"/a/c/s", "/a/c/s/s/t", "//s//p", "/a/c/s[p]/t", "/a/c/s/p"}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ { // estimate traffic
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.EstimateBatch(ctx, "fig2", queries, false); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	var mutations atomic.Int64
	mutatorDead := make(chan struct{})
	wg.Add(1)
	go func() { // feedback + subtree churn (serialized per entry by e.mu inside)
		defer wg.Done()
		defer close(mutatorDead)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 4 {
			case 0:
				err = r.Feedback("fig2", "/a/c/s/p", float64(1+i%9))
			case 1:
				err = r.Feedback("fig2", "/a/c/s[p]/t", float64(1+i%4))
			case 2:
				err = r.AddSubtree("fig2", []string{"a"}, "<c><s/></c>")
			case 3:
				err = r.RemoveSubtree("fig2", []string{"a"}, "<c><s/></c>")
			}
			if err != nil {
				t.Error(err)
				return
			}
			mutations.Add(1)
		}
	}()
	wg.Add(1)
	go func() { // aggregate-budget churn driving rebalancer SetBudget applies
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.SetAggregateBudget(1<<20 + (i%2)*4096)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for alive := true; alive && mutations.Load() < 200; {
		select {
		case <-mutatorDead: // died on error: fail fast, don't hang the wait
			alive = false
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	r.waitRebalanced() // no more SetBudget applications in flight

	// Quiesced: the final snapshot's answers are the only acceptable ones.
	sn := e.syn.Snapshot()
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = sn.EstimateQuery(xseed.MustParseQuery(q))
	}
	for round := 0; round < 2; round++ {
		items, err := r.EstimateBatch(ctx, "fig2", queries, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range items {
			if items[i].Estimate != want[i] {
				t.Fatalf("round %d: %s = %v, want %v (stale cache scope?)",
					round, queries[i], items[i].Estimate, want[i])
			}
		}
		if round == 1 {
			for i := range items {
				if !items[i].Cached {
					t.Errorf("round 1: %s not served from cache", queries[i])
				}
			}
		}
	}
}

// TestEstimateP99BoundedDuringFeedbackStorm asserts the latency half of the
// acceptance criterion: with a feedback storm continuously mutating the
// same synopsis (every applied feedback publishes a new snapshot and
// retires the estimate cache), concurrent estimates stay bounded — they
// never wait on the mutators' lock, worst case they rebuild the small EPT
// for a fresh snapshot. The bound is deliberately generous (wall-clock CI
// noise), catching only a return to reader-blocks-on-writer behavior,
// where estimates would queue behind every feedback's critical section.
func TestEstimateP99BoundedDuringFeedbackStorm(t *testing.T) {
	_, syn := buildFixtureSynopsis(t, nil)
	r := NewRegistry(4096, 0)
	if _, err := r.Add("fig2", syn, "test"); err != nil {
		t.Fatal(err)
	}
	queries := []string{"/a/c/s", "/a/c/s/s/t", "//s//p", "/a/c/s[p]/t"}
	ctx := context.Background()
	if _, err := r.EstimateBatch(ctx, "fig2", queries, false); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var storms atomic.Int64
	stormDead := make(chan struct{})
	var deadOnce sync.Once
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.Feedback("fig2", "/a/c/s/p", float64(1+(g+i)%13)); err != nil {
					t.Error(err)
					deadOnce.Do(func() { close(stormDead) })
					return
				}
				storms.Add(1)
			}
		}(g)
	}

	for alive := true; alive && storms.Load() < 10; { // storm demonstrably running
		select {
		case <-stormDead: // died on error: fail fast, don't hang the wait
			alive = false
		case <-time.After(time.Millisecond):
		}
	}
	const probes = 400
	lat := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		start := time.Now()
		if _, err := r.Estimate(ctx, "fig2", queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[int(math.Ceil(0.99*float64(len(lat))))-1]
	t.Logf("estimate p99 %v (p50 %v) during %d feedbacks", p99, lat[len(lat)/2], storms.Load())
	if storms.Load() == 0 {
		t.Fatal("feedback storm never ran")
	}
	if p99 > 250*time.Millisecond {
		t.Fatalf("estimate p99 %v during feedback storm exceeds 250ms", p99)
	}
}
