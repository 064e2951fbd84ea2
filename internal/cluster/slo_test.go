package cluster

import (
	"testing"

	"sailfish/internal/slo"
	"sailfish/internal/xgwh"
)

// TestRegionForwardZeroAllocWithSLO pins the ISSUE's acceptance bar for the
// SLO tentpole: attaching the per-tenant collector must not cost the
// forward fast path a single allocation. The collector's hot side is an
// atomic add into a pre-resolved cell — the copy-on-write tenant map is
// only rebuilt on Track, never per packet.
func TestRegionForwardZeroAllocWithSLO(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	col := slo.NewCollector()
	col.Track(100)
	r.EnableSLO(col)
	raw := buildPacket(t, 100, "192.168.0.1", "192.168.0.5")
	now := t0()
	allocs := testing.AllocsPerRun(200, func() {
		res, err := r.ProcessPacket(raw, now)
		if err != nil {
			t.Fatal(err)
		}
		if res.GW.Action != xgwh.ActionForward {
			t.Fatalf("action = %v", res.GW.Action)
		}
	})
	if allocs != 0 {
		t.Fatalf("forward path with SLO collector allocates %.1f per packet, want 0", allocs)
	}
	if c, ok := col.Snapshot(100); !ok || c.Forwarded == 0 {
		t.Fatalf("collector saw nothing: %+v ok=%v", c, ok)
	}
}

// TestRegionSLOLedgerParity checks the lane's booking discipline packet by
// packet: every disposition the region ledger records lands in the SLO
// collector too, with no_route folded into the tenant's Dropped (a tenant's
// loss SLI counts every packet that did not come out the other side) and
// packets that die before VNI parse booked against the untracked cell.
func TestRegionSLOLedgerParity(t *testing.T) {
	r := NewRegion(smallConfig(), 2, 1)
	installTenant(t, r, 0, 100)
	installTenant(t, r, 1, 101)
	col := slo.NewCollector()
	col.Track(100)
	col.Track(101)
	r.EnableSLO(col)

	forward := buildPacket(t, 100, "192.168.0.1", "192.168.0.5")
	routeMiss := buildPacket(t, 100, "192.168.0.3", "10.9.9.9") // → fallback
	unsteered := buildPacket(t, 999, "192.168.0.1", "192.168.0.5")
	malformed := []byte{1, 2, 3}
	disabled := buildPacket(t, 101, "192.168.0.2", "192.168.0.5")
	r.SetClusterEnabled(1, false)

	for i := 0; i < 3; i++ {
		r.ProcessPacket(forward, t0())   //nolint:errcheck
		r.ProcessPacket(routeMiss, t0()) //nolint:errcheck
	}
	r.ProcessPacket(unsteered, t0()) //nolint:errcheck
	r.ProcessPacket(malformed, t0()) //nolint:errcheck
	r.ProcessPacket(disabled, t0())  //nolint:errcheck

	st := r.Stats()
	tot := col.Total()
	if tot.Forwarded != st.Forwarded || tot.Fallback != st.Fallback ||
		tot.FallbackMiss != st.FallbackMiss || tot.Degraded != st.Degraded {
		t.Fatalf("ledger mismatch:\nslo    %+v\nregion %+v", tot, st)
	}
	if want := st.Dropped + st.NoRoute; tot.Dropped != want {
		t.Fatalf("slo Dropped %d != region Dropped+NoRoute %d", tot.Dropped, want)
	}

	// Tenant attribution. VNI 100's route misses fell to the x86 pool,
	// which does not hold the route either (nothing mirrored it), so each
	// miss books dropped alone: fallback is booked only for packets the
	// pool completed, and every packet lands under exactly one outcome.
	c100, _ := col.Snapshot(100)
	if c100.Forwarded != 3 || c100.Fallback != 0 || c100.FallbackMiss != 3 || c100.Dropped != 3 {
		t.Fatalf("vni 100 = %+v", c100)
	}
	c101, _ := col.Snapshot(101)
	if c101.Dropped != 1 || c101.Attempted() != 1 {
		t.Fatalf("vni 101 = %+v", c101)
	}
	// The unsteered VNI and the malformed packet (no VNI at all) land in
	// the untracked cell, not on any tenant.
	if u := col.Untracked(); u.Dropped != 2 {
		t.Fatalf("untracked = %+v", u)
	}
}
