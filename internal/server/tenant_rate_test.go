package server

import (
	"testing"
	"time"
)

// rateTenant builds a one-tenant set and returns the tenant.
func rateTenant(t *testing.T, cfg TenantConfig) *Tenant {
	t.Helper()
	if cfg.ID == "" {
		cfg.ID = "acme"
	}
	if cfg.Token == "" {
		cfg.Token = "tok-acme"
	}
	ts, err := NewTenantSet(nil, []TenantConfig{cfg})
	if err != nil {
		t.Fatal(err)
	}
	ten := ts.byID[cfg.ID]
	if ten == nil {
		t.Fatalf("tenant %q not indexed", cfg.ID)
	}
	return ten
}

// drain counts how many consecutive requests the bucket allows right now.
func drain(t *testing.T, ten *Tenant, max int) int {
	t.Helper()
	for i := 0; i < max; i++ {
		if !ten.allowN(1) {
			return i
		}
	}
	return max
}

// rewind moves the bucket's refill clock back, simulating elapsed time
// without sleeping.
func rewind(ten *Tenant, d time.Duration) {
	ten.rlMu.Lock()
	ten.rlLast = ten.rlLast.Add(-d)
	ten.rlMu.Unlock()
}

// TestTenantFlatRateDefaultsBurstToRate pins the pre-burst contract: a
// config that sets ratePerSec without burst gets exactly one second's
// worth of immediate capacity — the behavior every flat-rate deployment
// shipped with. A change to this default is a breaking config change.
func TestTenantFlatRateDefaultsBurstToRate(t *testing.T) {
	ten := rateTenant(t, TenantConfig{RatePerSec: 10})
	if ten.rlBurst != 10 {
		t.Fatalf("flat-rate burst = %g, want defaulted to rate 10", ten.rlBurst)
	}
	if got := drain(t, ten, 100); got != 10 {
		t.Fatalf("flat-rate config allowed %d immediate requests, want exactly 10", got)
	}
	if ten.rateLimited.Load() != 1 {
		t.Fatalf("rateLimited = %d, want 1", ten.rateLimited.Load())
	}
	// Sustained rate: a second of refill buys another second's worth.
	rewind(ten, time.Second)
	if got := drain(t, ten, 100); got != 10 {
		t.Fatalf("after 1s refill allowed %d, want 10", got)
	}
}

// TestTenantSubUnitBurstClampsToRate: a burst below one token cannot
// admit any request, so it falls back to the flat-rate default rather
// than configuring a tenant into a silent total outage.
func TestTenantSubUnitBurstClampsToRate(t *testing.T) {
	ten := rateTenant(t, TenantConfig{RatePerSec: 3, Burst: 0.5})
	if ten.rlBurst != 3 {
		t.Fatalf("sub-unit burst = %g, want clamped to rate 3", ten.rlBurst)
	}
	if got := drain(t, ten, 10); got != 3 {
		t.Fatalf("allowed %d immediate requests, want 3", got)
	}
}

// TestTenantBurstAboveRate: burst > rate admits the configured spike at
// once, then throttles to the sustained rate — and idle time never
// accumulates capacity past the burst ceiling.
func TestTenantBurstAboveRate(t *testing.T) {
	ten := rateTenant(t, TenantConfig{RatePerSec: 5, Burst: 20})
	if got := drain(t, ten, 100); got != 20 {
		t.Fatalf("burst admitted %d immediate requests, want 20", got)
	}
	// Sustained: one second refills rate (5), not burst (20) tokens.
	rewind(ten, time.Second)
	if got := drain(t, ten, 100); got != 5 {
		t.Fatalf("after 1s the bucket admitted %d, want sustained rate 5", got)
	}
	// A long idle stretch caps at the burst ceiling.
	rewind(ten, time.Hour)
	if got := drain(t, ten, 1000); got != 20 {
		t.Fatalf("after an idle hour the bucket admitted %d, want burst cap 20", got)
	}
}

// TestTenantZeroRateUnlimited: rate 0 disables limiting even with a
// burst configured — burst shapes a limit, it does not create one.
func TestTenantZeroRateUnlimited(t *testing.T) {
	ten := rateTenant(t, TenantConfig{Burst: 50})
	if got := drain(t, ten, 10000); got != 10000 {
		t.Fatalf("unlimited tenant denied a request after %d", got)
	}
	if ten.rateLimited.Load() != 0 {
		t.Fatalf("rateLimited = %d, want 0", ten.rateLimited.Load())
	}
}
