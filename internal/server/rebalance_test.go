package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
	"xseed/api"

	"xseed"
)

// buildFig2 wraps the shared fixture helper when only the synopsis matters.
func buildFig2(t testing.TB) *xseed.Synopsis {
	t.Helper()
	_, syn := buildFixtureSynopsis(t, nil)
	return syn
}

func percentile99(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[(len(d)*99)/100]
}

// TestRebalanceDoesNotStallUnrelatedEstimates is the acceptance criterion:
// while synopsis "a"'s registration is stalled inside its base-snapshot
// write (entry write-locked, registerMu held — the slow-fsync shape) and a
// SetAggregateBudget lands mid-flight, estimates to the unrelated synopsis
// "b" must keep flowing under a p99 bound. Before the async rebalancer,
// SetAggregateBudget held the registry-wide lock while waiting on "a"'s
// entry lock, so every Get — and with it every estimate — queued behind the
// stalled registration.
func TestRebalanceDoesNotStallUnrelatedEstimates(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), AggregateBudgetBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := s.Registry()
	if _, err := reg.Add("b", buildFig2(t), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Estimate(context.Background(), "b", "/a/c/s"); err != nil {
		t.Fatal(err)
	}

	const hold = 2 * time.Second
	const bound = 500 * time.Millisecond
	stalled := make(chan struct{})
	release := make(chan struct{})
	reg.registerHook = func(name string) {
		if name != "a" {
			return
		}
		close(stalled)
		select {
		case <-release:
		case <-time.After(hold): // fail via blown p99, not a hung test
		}
	}

	synA := buildFig2(t) // built on the test goroutine: t.Fatal must not run off it
	addDone := make(chan error, 1)
	go func() {
		_, err := reg.Add("a", synA, "test")
		addDone <- err
	}()
	<-stalled

	// The shape change lands while "a" is stalled. It must return promptly
	// (planning only) and must not drag the serving path down with it.
	budgetDone := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		reg.SetAggregateBudget(96 << 10)
		budgetDone <- time.Since(start)
	}()

	const rounds = 400
	lat := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := reg.Estimate(context.Background(), "b", "/a/c/s"); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	if p99 := percentile99(lat); p99 > bound {
		t.Errorf("estimate p99 to unrelated synopsis = %v during stalled registration, want < %v", p99, bound)
	}
	if d := <-budgetDone; d > bound {
		t.Errorf("SetAggregateBudget took %v while a registration was stalled, want < %v", d, bound)
	}

	close(release)
	if err := <-addDone; err != nil {
		t.Fatal(err)
	}
	reg.waitRebalanced()

	// Budgets converge once the stall clears: both entries carry the targets
	// of a fresh plan over the final aggregate budget.
	var kernels int
	for _, name := range []string{"a", "b"} {
		e, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		kernels += int(e.kernBytes.Load())
	}
	share := ((96 << 10) - kernels) / 2
	for _, name := range []string{"a", "b"} {
		e, _ := reg.Get(name)
		e.mu.RLock()
		got := e.lastBudget
		e.mu.RUnlock()
		want := int(e.kernBytes.Load()) + share
		if got != want {
			t.Errorf("%s: lastBudget = %d after drain, want %d", name, got, want)
		}
	}
	st := reg.Stats()
	if st.Rebalance.Pending != 0 || st.Rebalance.Gen == 0 || st.Rebalance.AppliedGen != st.Rebalance.Gen {
		t.Errorf("rebalance stats after drain = %+v", st.Rebalance)
	}
	if !st.Rebalance.Async {
		t.Error("server registry reports a synchronous rebalancer")
	}
}

// TestRebalanceRestartReplayConvergence is the durability half of the
// acceptance criterion: after a burst of coalesced rebalances (with
// registry-shape churn mixed in), a kill -9 and restart must replay the
// budget deltas to the same per-synopsis budgets and resident HET sets the
// live daemon held.
func TestRebalanceRestartReplayConvergence(t *testing.T) {
	dir := t.TempDir()
	const budget0 = 32 << 10
	s, err := New(Config{StoreDir: dir, AggregateBudgetBytes: budget0})
	if err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	names := []string{"s0", "s1", "s2"}
	for _, name := range names {
		if _, err := reg.Add(name, buildFig2(t), "test"); err != nil {
			t.Fatal(err)
		}
	}

	// Burst: the worker coalesces most of these plans into a few passes.
	final := 0
	for i := 0; i < 20; i++ {
		final = budget0 + (i%7)*2048
		reg.SetAggregateBudget(final)
		if i%6 == 0 {
			if _, err := reg.Add("churn", buildFig2(t), "test"); err != nil {
				t.Fatal(err)
			}
			if err := reg.Delete("churn"); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg.waitRebalanced()

	type state struct {
		budget   int
		resident int
	}
	want := make(map[string]state)
	for _, name := range names {
		e, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		e.mu.RLock()
		budget := e.lastBudget
		resident, _ := e.syn.HETEntries()
		e.mu.RUnlock()
		want[name] = state{budget, resident}
	}

	// kill -9: no Close, no flush. Budget deltas were O_APPEND writes inside
	// each entry's critical section, so they are already in the page cache's
	// hands, exactly like the feedback crash tests.
	s2, err := New(Config{StoreDir: dir, AggregateBudgetBytes: final})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, name := range names {
		e, err := s2.Registry().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		e.mu.RLock()
		budget := e.lastBudget
		resident, _ := e.syn.HETEntries()
		e.mu.RUnlock()
		if budget != want[name].budget || resident != want[name].resident {
			t.Errorf("%s: restart replayed to budget=%d resident=%d, live had budget=%d resident=%d",
				name, budget, resident, want[name].budget, want[name].resident)
		}
	}
	if _, err := s2.Registry().Get("churn"); err == nil {
		t.Error("churn synopsis resurrected by restart")
	}
}

// TestRebalanceCoalescesBursts pins the coalescing contract: with the worker
// wedged behind a stalled entry, a burst of shape changes collapses into few
// applied plans (the newest wins), not one pass per call.
func TestRebalanceCoalescesBursts(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), AggregateBudgetBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := s.Registry()
	if _, err := reg.Add("b", buildFig2(t), "test"); err != nil {
		t.Fatal(err)
	}

	// Wedge the worker: hold b's write lock so the in-flight plan blocks.
	e, _ := reg.Get("b")
	e.mu.Lock()
	const burst = 50
	for i := 0; i < burst; i++ {
		reg.SetAggregateBudget(64<<10 + i*1024)
	}
	gen := reg.rebalGen.Load()
	e.mu.Unlock()
	reg.waitRebalanced()

	st := reg.RebalanceStats()
	if st.AppliedGen < gen {
		t.Fatalf("drain left applied gen %d < planned %d", st.AppliedGen, gen)
	}
	// The worker can have applied at most: the plan in flight when the lock
	// was taken, plus one coalesced survivor of the burst (plus whatever ran
	// before the wedge). It must not have applied ~burst passes.
	e.mu.RLock()
	lastGen := e.budgetGen
	got := e.lastBudget
	e.mu.RUnlock()
	if lastGen != gen {
		t.Errorf("entry's final budget came from plan %d, want newest plan %d", lastGen, gen)
	}
	// Single entry: its target is the whole aggregate budget of the newest plan.
	if wantFinal := 64<<10 + (burst-1)*1024; got != wantFinal {
		t.Errorf("final budget = %d, want %d (newest plan's target)", got, wantFinal)
	}
}

// TestRegistrySyncRebalanceWithoutWorker pins the fallback contract Restore
// depends on: a registry whose worker was never started applies budget plans
// synchronously, before the shape change returns.
func TestRegistrySyncRebalanceWithoutWorker(t *testing.T) {
	syn := buildFig2(t)
	r := NewRegistry(0, syn.KernelSizeBytes())
	if _, err := r.Add("only", syn, "test"); err != nil {
		t.Fatal(err)
	}
	// Kernel-only budget: the HET must already be evicted when Add returns.
	if n := syn.HETSizeBytes(); n != 0 {
		t.Fatalf("resident HET bytes = %d immediately after sync Add, want 0", n)
	}
	if st := r.RebalanceStats(); st.Async || st.Pending != 0 {
		t.Errorf("bare registry rebalance stats = %+v, want sync and drained", st)
	}
	// Returning to unlimited (0) must lift the fleet-imposed bound, not
	// leave the synopsis pinned at its last tight budget.
	r.SetAggregateBudget(0)
	if syn.HETSizeBytes() == 0 {
		t.Fatal("HET still evicted after the aggregate budget was lifted")
	}
	resident, total := syn.HETEntries()
	if resident != total {
		t.Errorf("unlimited budget left %d/%d HET entries resident", resident, total)
	}
	e, _ := r.Get("only")
	if got := int64(e.lastBudget); got != -1 {
		t.Errorf("lastBudget = %d after lifting the budget, want -1", got)
	}

	// A registry that never had a budget plans nothing at all.
	r2 := NewRegistry(0, 0)
	syn2 := buildFig2(t)
	hetBefore := syn2.HETSizeBytes()
	if _, err := r2.Add("x", syn2, "test"); err != nil {
		t.Fatal(err)
	}
	if g := r2.rebalGen.Load(); g != 0 {
		t.Errorf("budget-less registry planned %d rebalances", g)
	}
	if syn2.HETSizeBytes() != hetBefore {
		t.Error("budget-less registry touched a synopsis's build-time budget")
	}
}

// TestRebalanceStatsJSON drives the new /stats fields and the runtime
// budget endpoint over HTTP.
func TestRebalanceStatsJSON(t *testing.T) {
	s, ts := newTestServer(t)
	defer s.Close()
	createFixture(t, ts, "fig2")
	var st api.Stats
	doJSON(t, ts.Client(), "GET", ts.URL+"/v1/stats", nil, &st)
	if !st.Rebalance.Async {
		t.Errorf("stats.rebalance = %+v, want async worker reported", st.Rebalance)
	}

	var rb api.RebalanceStats
	if r := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/admin/budget", api.BudgetRequest{Bytes: 32 << 10}, &rb); r.StatusCode != 202 {
		t.Fatalf("budget change: status %d", r.StatusCode)
	}
	if rb.Gen == 0 {
		t.Errorf("budget change planned no rebalance: %+v", rb)
	}
	s.Registry().waitRebalanced()
	doJSON(t, ts.Client(), "GET", ts.URL+"/v1/stats", nil, &st)
	if st.AggregateBudget != 32<<10 || st.Rebalance.AppliedGen < rb.Gen || st.Rebalance.Pending != 0 {
		t.Errorf("stats after budget change = budget %d rebalance %+v", st.AggregateBudget, st.Rebalance)
	}
	if r := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/admin/budget", api.BudgetRequest{Bytes: -1}, nil); r.StatusCode != 400 {
		t.Errorf("negative budget: status %d", r.StatusCode)
	}
}

// TestRebalanceConcurrentChurnHammer races shape changes, budget changes,
// estimates, and feedback against the async rebalancer; meaningful under
// -race, and the drain at the end must converge.
func TestRebalanceConcurrentChurnHammer(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), AggregateBudgetBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := s.Registry()
	if _, err := reg.Add("base", buildFig2(t), "test"); err != nil {
		t.Fatal(err)
	}
	// Pre-build on the test goroutine: t.Fatal must not run off it, and a
	// synopsis must not be shared across add/delete generations (a plan
	// holding the retired entry and the re-add would mutate one synopsis
	// under two different entry locks).
	const churners, churnRounds = 3, 30
	var churnSyns [churners][churnRounds]*xseed.Synopsis
	for g := range churnSyns {
		for i := range churnSyns[g] {
			churnSyns[g][i] = buildFig2(t)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < churnRounds; i++ {
				name := fmt.Sprintf("churn%d", g)
				if _, err := reg.Add(name, churnSyns[g][i], "test"); err != nil {
					t.Error(err)
					return
				}
				if err := reg.Delete(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			reg.SetAggregateBudget(48<<10 + (i%4)*4096)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			if _, err := reg.Estimate(context.Background(), "base", "/a/c/s"); err != nil {
				t.Error(err)
				return
			}
			if i%10 == 0 {
				if err := reg.Feedback("base", "/a/c/s/s/t", 2); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	reg.waitRebalanced()
	if st := reg.RebalanceStats(); st.Pending != 0 {
		t.Errorf("pending plans after drain: %+v", st)
	}
}
