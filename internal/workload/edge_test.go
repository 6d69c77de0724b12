package workload

import "testing"

// TestShareDefaultsToOne: a tenant without a positive share weighs one.
func TestShareDefaultsToOne(t *testing.T) {
	for _, s := range []float64{0, -2} {
		if got := share(TenantSpec{Share: s}); got != 1 {
			t.Errorf("share of a tenant with Share %v = %v, want 1", s, got)
		}
	}
	if got := share(TenantSpec{Share: 2.5}); got != 2.5 {
		t.Errorf("share of a tenant with Share 2.5 = %v", got)
	}
}
