package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sailfish/internal/metrics"
)

// dropMix builds a region whose clusters exercise every front-end drop
// reason short of the software tiers, plus the packet set that hits them:
// forwards on cluster 0, a disabled cluster, a cluster with no live nodes,
// a cluster with no healthy ports, an unsteered VNI and a malformed frame.
func dropMix(t *testing.T) (*Region, [][]byte) {
	t.Helper()
	r := NewRegion(smallConfig(), 4, 0)
	installTenant(t, r, 0, 100)
	installTenant(t, r, 1, 101)
	installTenant(t, r, 2, 102)
	installTenant(t, r, 3, 103)
	r.SetClusterEnabled(1, false)
	for i := range r.Clusters[2].Nodes {
		r.Clusters[2].FailNode(i)
	}
	for _, n := range r.Clusters[3].Nodes {
		for p := 0; p < PortsPerNode; p++ {
			n.FailPort(p)
		}
	}
	raws := [][]byte{
		buildPacket(t, 100, "192.168.0.1", "192.168.0.5"),
		buildPacket(t, 100, "192.168.0.2", "192.168.0.5"),
		buildPacket(t, 100, "192.168.0.3", "192.168.0.5"),
		buildPacket(t, 101, "192.168.0.1", "192.168.0.5"), // cluster disabled
		buildPacket(t, 102, "192.168.0.1", "192.168.0.5"), // no live node
		buildPacket(t, 103, "192.168.0.1", "192.168.0.5"), // no healthy port
		buildPacket(t, 999, "192.168.0.1", "192.168.0.5"), // unsteered VNI
		{1, 2, 3}, // malformed
	}
	return r, raws
}

// TestRegionRegisterMetricsExposition runs the drop mix through the region
// and checks that every front-end kill is booked exactly once under its
// reason, and that the region families render into the Prometheus text
// format with those counts.
func TestRegionRegisterMetricsExposition(t *testing.T) {
	r, raws := dropMix(t)
	reg := metrics.NewRegistry()
	r.RegisterMetrics(reg)
	for _, raw := range raws {
		r.ProcessPacket(raw, t0()) //nolint:errcheck // drops expected
	}

	wantFront := map[string]uint64{
		"parse_error":      1,
		"no_route":         1,
		"cluster_disabled": 1,
		"no_live_node":     1,
		"no_healthy_port":  1,
		"fallback_error":   0,
		"dpu_error":        0,
	}
	if got := r.Stats().FrontDrops; !reflect.DeepEqual(got, wantFront) {
		t.Fatalf("front drop reasons = %v, want %v", got, wantFront)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	want := []string{
		"sailfish_region_forwarded_total 3",
		"sailfish_region_noroute_total 1",
		"sailfish_region_dropped_total 4",
		`sailfish_cluster_water_level{cluster="0"}`,
		"sailfish_region_fallback_ratio 0",
	}
	for reason, n := range wantFront {
		want = append(want, fmt.Sprintf("sailfish_region_front_drops_total{reason=%q} %d", reason, n))
	}
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Fatalf("exposition missing %q in:\n%s", w, body)
		}
	}
}
