package cluster

import (
	"net/netip"
	"testing"
	"time"

	"sailfish/internal/netpkt"
	"sailfish/internal/tables"
	"sailfish/internal/xgwh"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func t0() time.Time             { return time.Unix(0, 0) }

func smallConfig() Config {
	c := DefaultConfig()
	c.NodesPerCluster = 3
	c.EntryCapacity = 1000
	return c
}

func buildPacket(t testing.TB, vni netpkt.VNI, src, dst string) []byte {
	t.Helper()
	b := netpkt.NewSerializeBuffer(128, 256)
	raw, err := (&netpkt.BuildSpec{
		VNI:      vni,
		OuterSrc: addr("10.1.1.11"), OuterDst: addr("10.255.0.1"),
		InnerSrc: addr(src), InnerDst: addr(dst),
		Proto: netpkt.IPProtocolTCP, SrcPort: 999, DstPort: 80,
	}).Build(b)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

// installTenant wires one tenant into a region cluster + steering.
func installTenant(t *testing.T, r *Region, id int, vni netpkt.VNI) {
	t.Helper()
	c := r.Clusters[id]
	if err := c.InstallRoute(vni, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal}); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM(vni, addr("192.168.0.5"), addr("100.64.0.5")); err != nil {
		t.Fatal(err)
	}
	r.FrontEnd.Steering.Assign(vni, id)
}

func TestRegionEndToEndForward(t *testing.T) {
	r := NewRegion(smallConfig(), 2, 1)
	installTenant(t, r, 0, 100)
	installTenant(t, r, 1, 101)

	res, err := r.ProcessPacket(buildPacket(t, 100, "192.168.0.1", "192.168.0.5"), t0())
	if err != nil {
		t.Fatal(err)
	}
	if res.ClusterID != 0 || res.GW.Action != xgwh.ActionForward {
		t.Fatalf("res = %+v", res)
	}
	if res.GW.NC != addr("100.64.0.5") {
		t.Fatalf("NC = %v", res.GW.NC)
	}
	// Tenant 101 must land on cluster 1.
	res, err = r.ProcessPacket(buildPacket(t, 101, "192.168.0.1", "192.168.0.5"), t0())
	if err != nil || res.ClusterID != 1 {
		t.Fatalf("res = %+v err = %v", res, err)
	}
}

func TestRegionUnknownVNIRejected(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	if _, err := r.ProcessPacket(buildPacket(t, 999, "192.168.0.1", "192.168.0.5"), t0()); err == nil {
		t.Fatal("unsteered VNI processed")
	}
	if r.Stats().NoRoute != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

// Replicas: every node of a cluster answers identically, so ECMP spreading
// is safe.
func TestClusterReplication(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	raw := buildPacket(t, 100, "192.168.0.1", "192.168.0.5")
	for _, n := range r.Clusters[0].Nodes {
		res, err := n.GW.ProcessPacket(raw, t0())
		if err != nil || res.Action != xgwh.ActionForward || res.NC != addr("100.64.0.5") {
			t.Fatalf("node %s diverged: %+v %v", n.ID, res, err)
		}
	}
	// Backup cluster holds the same entries (1:1 hot standby).
	for _, n := range r.Clusters[0].Backup.Nodes {
		res, err := n.GW.ProcessPacket(raw, t0())
		if err != nil || res.Action != xgwh.ActionForward {
			t.Fatalf("backup node %s diverged: %+v %v", n.ID, res, err)
		}
	}
}

func TestNodeFailover(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	raw := buildPacket(t, 100, "192.168.0.1", "192.168.0.5")
	// Fail two of three nodes; traffic must still flow via the survivor.
	r.Clusters[0].FailNode(0)
	r.Clusters[0].FailNode(1)
	res, err := r.ProcessPacket(raw, t0())
	if err != nil || res.GW.Action != xgwh.ActionForward {
		t.Fatalf("res = %+v err = %v", res, err)
	}
	if res.NodeID != r.Clusters[0].Nodes[2].ID {
		t.Fatalf("served by %s, want the only survivor", res.NodeID)
	}
	// Fail the last node: region reports no live nodes.
	r.Clusters[0].FailNode(2)
	if _, err := r.ProcessPacket(raw, t0()); err != ErrNoLiveNodes {
		t.Fatalf("want ErrNoLiveNodes, got %v", err)
	}
	// Restore one node: service resumes.
	r.Clusters[0].RestoreNode(1)
	if _, err := r.ProcessPacket(raw, t0()); err != nil {
		t.Fatal(err)
	}
}

func TestClusterFailoverToBackup(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	raw := buildPacket(t, 100, "192.168.0.1", "192.168.0.5")
	// Kill every main node, fail over to the backup cluster.
	for i := range r.Clusters[0].Nodes {
		r.Clusters[0].FailNode(i)
	}
	r.FailoverCluster(0)
	res, err := r.ProcessPacket(raw, t0())
	if err != nil || res.GW.Action != xgwh.ActionForward {
		t.Fatalf("backup did not serve: %+v %v", res, err)
	}
	if !r.OnBackup(0) {
		t.Fatal("failover state lost")
	}
	r.FailbackCluster(0)
	if r.OnBackup(0) {
		t.Fatal("failback did not clear failover")
	}
}

func TestFallbackPathThroughX86(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 2)
	// Steer the VNI but install the tenant's entries ONLY in software —
	// the volatile-table scenario of §4.2.
	r.FrontEnd.Steering.Assign(100, 0)
	for _, fb := range r.Fallback {
		fb.Routes.Insert(100, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal})
		fb.VMNC.Insert(100, addr("192.168.0.5"), addr("100.64.0.5"))
	}
	res, err := r.ProcessPacket(buildPacket(t, 100, "192.168.0.1", "192.168.0.5"), t0())
	if err != nil {
		t.Fatal(err)
	}
	if res.GW.Action != xgwh.ActionFallback || !res.ViaFallback {
		t.Fatalf("res = %+v", res)
	}
	if res.FallbackOut.NC != addr("100.64.0.5") {
		t.Fatalf("fallback NC = %v", res.FallbackOut.NC)
	}
	if r.Stats().Fallback != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestCapacityEnforced(t *testing.T) {
	cfg := smallConfig()
	cfg.EntryCapacity = 2
	r := NewRegion(cfg, 1, 0)
	c := r.Clusters[0]
	if err := c.InstallRoute(1, pfx("10.0.0.0/8"), tables.Route{Scope: tables.ScopeLocal}); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM(1, addr("10.0.0.1"), addr("100.64.0.1")); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM(1, addr("10.0.0.2"), addr("100.64.0.1")); err != ErrOverCapacity {
		t.Fatalf("want ErrOverCapacity, got %v", err)
	}
	if c.WaterLevel() != 1.0 {
		t.Fatalf("water level = %v", c.WaterLevel())
	}
}

func TestTenantBookkeeping(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	c := r.Clusters[0]
	if !c.HasTenant(100) || c.HasTenant(200) {
		t.Fatal("tenant tracking wrong")
	}
	if c.EntryCount() != 2 {
		t.Fatalf("entries = %d", c.EntryCount())
	}
	if got := c.Tenants(); len(got) != 1 || got[0] != 100 {
		t.Fatalf("tenants = %v", got)
	}
}

func TestClusterRemoveAPIs(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	c := r.Clusters[0]
	c.InstallRoute(5, pfx("10.0.0.0/8"), tables.Route{Scope: tables.ScopeLocal})
	c.InstallVM(5, addr("10.0.0.1"), addr("100.64.0.1"))
	if c.EntryCount() != 2 || !c.HasTenant(5) {
		t.Fatalf("setup: %d entries", c.EntryCount())
	}
	if !c.RemoveVM(5, addr("10.0.0.1")) {
		t.Fatal("RemoveVM failed")
	}
	if c.RemoveVM(5, addr("10.0.0.1")) {
		t.Fatal("double RemoveVM succeeded")
	}
	if !c.RemoveRoute(5, pfx("10.0.0.0/8")) {
		t.Fatal("RemoveRoute failed")
	}
	if c.EntryCount() != 0 || c.HasTenant(5) {
		t.Fatalf("bookkeeping after removal: %d entries, hasTenant=%v",
			c.EntryCount(), c.HasTenant(5))
	}
	// The backup replicas were withdrawn too.
	for _, n := range c.Backup.Nodes {
		if n.GW.RouteCount() != 0 || n.GW.VMCount() != 0 {
			t.Fatal("backup retained withdrawn entries")
		}
	}
}

func TestMarkServiceVNIReplicated(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 1)
	c := r.Clusters[0]
	c.InstallRoute(9, pfx("0.0.0.0/0"), tables.Route{Scope: tables.ScopeLocal})
	c.MarkServiceVNI(9)
	r.FrontEnd.Steering.Assign(9, 0)
	raw := buildPacket(t, 9, "192.168.0.1", "8.8.8.8")
	// Every node, main and backup, must steer the service VNI to software.
	for _, n := range append(append([]*Node{}, c.Nodes...), c.Backup.Nodes...) {
		res, err := n.GW.ProcessPacket(raw, t0())
		if err != nil || res.Action != xgwh.ActionFallback {
			t.Fatalf("node %s: %+v %v", n.ID, res, err)
		}
	}
}

func TestRegionStatsAccumulate(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	good := buildPacket(t, 100, "192.168.0.1", "192.168.0.5")
	miss := buildPacket(t, 100, "192.168.0.1", "9.9.9.9")
	r.ProcessPacket(good, t0())
	r.ProcessPacket(miss, t0()) // fallback (no pool → stays fallback action)
	r.ProcessPacket([]byte{1}, t0())
	st := r.Stats()
	if st.Forwarded != 1 || st.Fallback != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInstallErrorsPropagate(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	c := r.Clusters[0]
	// A v6 prefix in a v4 trie context is fine; an invalid prefix length
	// is caught by netip. The install error path we can force: capacity.
	cfg := smallConfig()
	cfg.EntryCapacity = 1
	r2 := NewRegion(cfg, 1, 0)
	c2 := r2.Clusters[0]
	if err := c2.InstallRoute(1, pfx("10.0.0.0/8"), tables.Route{Scope: tables.ScopeLocal}); err != nil {
		t.Fatal(err)
	}
	if err := c2.InstallRoute(1, pfx("11.0.0.0/8"), tables.Route{Scope: tables.ScopeLocal}); err != ErrOverCapacity {
		t.Fatalf("want ErrOverCapacity, got %v", err)
	}
	_ = c
}

// The whole region stack also runs on the hardware ALPM routing engine.
func TestRegionWithALPMEngine(t *testing.T) {
	cfg := smallConfig()
	cfg.ALPMRoutes = true
	r := NewRegion(cfg, 1, 0)
	installTenant(t, r, 0, 100)
	res, err := r.ProcessPacket(buildPacket(t, 100, "192.168.0.1", "192.168.0.5"), t0())
	if err != nil || res.GW.Action != xgwh.ActionForward || res.GW.NC != addr("100.64.0.5") {
		t.Fatalf("ALPM region: %+v %v", res.GW, err)
	}
	if _, ok := r.Clusters[0].Nodes[0].GW.ALPMRouteStats(); !ok {
		t.Fatal("ALPM engine not active")
	}
}
