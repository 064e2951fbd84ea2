package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sailfish/internal/netpkt"
	"sailfish/internal/tables"
	"sailfish/internal/xgwh"
)

var errNodeDown = errors.New("test: node down")

// wrappedGW stands in for a fault-injection wrapper: any Gateway that is not
// a bare *xgwh.Gateway only takes raw bytes, so the lane hands it the frame
// instead of its parsed packet. down fails every packet, as a crashed node
// does.
type wrappedGW struct {
	*xgwh.Gateway
	down bool
}

func (g *wrappedGW) ProcessPacket(raw []byte, now time.Time) (xgwh.ForwardResult, error) {
	if g.down {
		return xgwh.ForwardResult{}, errNodeDown
	}
	return g.Gateway.ProcessPacket(raw, now)
}

// flowPacket builds one frame of a flow; family follows the addresses.
func flowPacket(t testing.TB, vni netpkt.VNI, src, dst string, proto netpkt.IPProtocol, sport uint16) []byte {
	t.Helper()
	b := netpkt.NewSerializeBuffer(128, 256)
	raw, err := (&netpkt.BuildSpec{
		VNI:      vni,
		OuterSrc: addr("10.1.1.11"), OuterDst: addr("10.255.0.1"),
		InnerSrc: addr(src), InnerDst: addr(dst),
		Proto: proto, SrcPort: sport, DstPort: 443, Payload: []byte("single-pass"),
	}).Build(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(raw)
}

// singlePassWorld builds a three-tier region exercising every tier shape:
//
//   - cluster 0: tenant 100 (v4) and 106 (v6, one VM behind a v6 NC)
//     resident in hardware; tenant 105 demoted, its VMs split between the
//     DPU warm set and the x86 pool; tenant 107 service-scoped onto SNAT;
//   - cluster 1: tenant 101, degraded onto the pool;
//   - cluster 2: tenant 102 behind wrapped gateways, node 0 down.
//
// Two calls build identical worlds.
func singlePassWorld(t *testing.T) *Region {
	t.Helper()
	cfg := smallConfig()
	cfg.DPUDevices = 2
	r := NewRegion(cfg, 3, 2)
	installTenant(t, r, 0, 100)
	installTenant(t, r, 1, 101)
	installTenant(t, r, 2, 102)
	c0 := r.Clusters[0]
	if err := c0.InstallRoute(106, pfx("2001:db8:6::/48"), tables.Route{Scope: tables.ScopeLocal}); err != nil {
		t.Fatal(err)
	}
	if err := c0.InstallVM(106, addr("2001:db8:6::5"), addr("100.64.0.6")); err != nil {
		t.Fatal(err)
	}
	if err := c0.InstallVM(106, addr("2001:db8:6::7"), addr("2001:db8:ff::7")); err != nil {
		t.Fatal(err)
	}
	r.FrontEnd.Steering.Assign(106, 0)
	installTenant(t, r, 0, 105)
	if !c0.RemoveVM(105, addr("192.168.0.5")) {
		t.Fatal("demote: VM not resident in hardware")
	}
	for _, p := range []string{"0.0.0.0/0", "::/0"} {
		if err := c0.InstallRoute(107, pfx(p), tables.Route{Scope: tables.ScopeService}); err != nil {
			t.Fatal(err)
		}
	}
	r.FrontEnd.Steering.Assign(107, 0)

	if err := r.DPU.InstallRoute(105, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal}); err != nil {
		t.Fatal(err)
	}
	if err := r.DPU.InstallVM(105, addr("192.168.0.5"), addr("100.64.0.5")); err != nil {
		t.Fatal(err)
	}
	if err := r.DPU.InstallRoute(106, pfx("2001:db8:6::/48"), tables.Route{Scope: tables.ScopeLocal}); err != nil {
		t.Fatal(err)
	}
	if err := r.DPU.InstallVM(106, addr("2001:db8:6::9"), addr("2001:db8:ff::9")); err != nil {
		t.Fatal(err)
	}
	for _, fb := range r.Fallback {
		for _, vni := range []netpkt.VNI{101, 105} {
			fb.Routes.Insert(vni, pfx("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal})
			fb.VMNC.Insert(vni, addr("192.168.0.5"), addr("100.64.0.5"))
			fb.VMNC.Insert(vni, addr("192.168.0.9"), addr("100.64.0.9"))
		}
		fb.Routes.Insert(107, pfx("0.0.0.0/0"), tables.Route{Scope: tables.ScopeService})
		fb.Routes.Insert(107, pfx("::/0"), tables.Route{Scope: tables.ScopeService})
	}
	r.SetDegraded(1, true)
	for i, n := range r.Clusters[2].Nodes {
		n.GW = &wrappedGW{Gateway: n.GW.(*xgwh.Gateway), down: i == 0}
	}
	return r
}

// singlePassCorpus is the mixed packet list: every flow appears twice, so
// SNAT sessions and memoized state are revisited.
func singlePassCorpus(t *testing.T) [][]byte {
	t.Helper()
	tcp, udp := netpkt.IPProtocolTCP, netpkt.IPProtocolUDP
	var raws [][]byte
	for f := uint16(0); f < 6; f++ {
		src := fmt.Sprintf("192.168.1.%d", f+1)
		raws = append(raws,
			flowPacket(t, 100, src, "192.168.0.5", tcp, 1000+f),               // v4 hardware forward
			flowPacket(t, 100, src, "192.168.0.77", udp, 1000+f),              // hardware VM miss, pool no route
			flowPacket(t, 106, "2001:db8:6::1", "2001:db8:6::5", tcp, 1000+f), // v6 forward, v4 NC
			flowPacket(t, 106, "2001:db8:6::1", "2001:db8:6::7", udp, 1000+f), // v6 forward, v6 NC
			flowPacket(t, 106, "2001:db8:6::1", "2001:db8:6::9", tcp, 1000+f), // v6 DPU hit
			flowPacket(t, 105, src, "192.168.0.5", tcp, 1000+f),               // DPU hit
			flowPacket(t, 105, src, "192.168.0.9", udp, 1000+f),               // DPU miss, x86 forward
			flowPacket(t, 105, src, "192.168.0.99", tcp, 1000+f),              // x86 no_vm
			flowPacket(t, 107, src, "8.8.8.8", tcp, 1000+f),                   // SNAT outbound, TCP
			flowPacket(t, 107, src, "1.1.1.1", udp, 1000+f),                   // SNAT outbound, UDP
			flowPacket(t, 107, "2001:db8:7::1", "2001:db8::53", udp, 1000+f),  // SNAT not_ipv4
			flowPacket(t, 101, src, "192.168.0.9", tcp, 1000+f),               // degraded, pool carries
			flowPacket(t, 101, src, "192.168.0.99", tcp, 1000+f),              // degraded, pool error
			flowPacket(t, 102, src, "192.168.0.5", tcp, 1000+f),               // wrapped gateway (maybe down)
			flowPacket(t, 999, src, "192.168.0.5", tcp, 1000+f),               // no_route
		)
	}
	valid := raws[0]
	raws = append(raws, []byte{1, 2, 3}, valid[:len(valid)-30], valid[:20])
	return append(raws, raws...)
}

// refProcess carries one packet through the region the way the lane does,
// but only through the raw-byte entry points — ParseFront, FrontEnd.Route,
// Gateway.ProcessPacket, Pool.ProcessOn, Node.ProcessFallback — booking
// its own ledger with one outcome per packet.
func refProcess(r *Region, raw []byte, now time.Time, led *RegionStats) (Result, error) {
	drop := func(reason string) {
		led.Dropped++
		led.FrontDrops[reason]++
	}
	var fm netpkt.FrontMeta
	if err := netpkt.ParseFront(raw, &fm); err != nil {
		drop("parse_error")
		return Result{}, err
	}
	fh := fm.Flow.FastHash()
	cid, nidx, err := r.FrontEnd.Route(fm.VNI, fh)
	if err != nil {
		led.NoRoute++
		led.FrontDrops["no_route"]++
		return Result{}, err
	}
	if !r.ClusterEnabled(cid) {
		drop("cluster_disabled")
		return Result{}, ErrClusterDisabled
	}
	if r.DegradedCluster(cid) {
		out := Result{ClusterID: cid}
		fres, ferr := r.Fallback[fh%uint64(len(r.Fallback))].ProcessFallback(raw, now)
		if ferr != nil {
			drop("fallback_error")
			return out, ferr
		}
		led.Degraded++
		out.GW.Action, out.ViaFallback, out.FallbackOut = xgwh.ActionFallback, true, fres
		return out, nil
	}
	c := r.Clusters[cid]
	if r.OnBackup(cid) {
		c = c.Backup
	}
	live := c.LiveNodes()
	node := live[nidx%len(live)]
	port, _ := node.PickPort(fh)
	res, err := node.GW.ProcessPacket(raw, now)
	if err != nil {
		return Result{}, err
	}
	out := Result{ClusterID: cid, NodeID: node.ID, EgressPort: port, GW: res}
	switch res.Action {
	case xgwh.ActionForward:
		led.Forwarded++
	case xgwh.ActionDrop:
		led.Dropped++
	case xgwh.ActionFallback:
		if res.FallbackMiss {
			led.FallbackMiss++
			dres, served, derr := r.DPU.ProcessOn(int(fh%uint64(r.DPU.Devices())), raw, now)
			if derr != nil {
				drop("dpu_error")
				return out, nil
			}
			if served {
				led.DPUServed++
				out.ViaDPU, out.DPUOut = true, dres
				return out, nil
			}
			led.FallbackMissX86++
		}
		fres, ferr := r.Fallback[fh%uint64(len(r.Fallback))].ProcessFallback(raw, now)
		if ferr != nil {
			drop("fallback_error")
			return out, nil
		}
		led.Fallback++
		out.ViaFallback, out.FallbackOut = true, fres
	}
	return out, nil
}

// snapshot copies a result with its Out slices cloned, since they alias
// scratch the next packet overwrites.
func snapshot(res Result) Result {
	res.GW.Out = bytes.Clone(res.GW.Out)
	res.DPUOut.Out = bytes.Clone(res.DPUOut.Out)
	res.FallbackOut.Out = bytes.Clone(res.FallbackOut.Out)
	return res
}

// The single-pass lane is a refactor of the raw-entry-point pipeline, not a
// new behaviour: over a mixed corpus (v4/v6, DPU hit and miss, x86
// forwards, SNAT, parse errors, no_route, degraded and wrapped gateways)
// every Result field — Out bytes included — every error, the region ledger
// and every subsystem ledger match a reference world driven through the raw
// entry points.
func TestSinglePassMatchesRawEntryPoints(t *testing.T) {
	got, want := singlePassWorld(t), singlePassWorld(t)
	led := RegionStats{FrontDrops: map[string]uint64{}}
	for _, reason := range FrontDropReasonNames() {
		led.FrontDrops[reason] = 0
	}
	corpus := singlePassCorpus(t)
	for i, raw := range corpus {
		now := t0().Add(time.Duration(i) * time.Millisecond)
		gres, gerr := got.ProcessPacket(raw, now)
		wres, werr := refProcess(want, raw, now, &led)
		if gerr != werr {
			t.Fatalf("packet %d: err %v, reference %v", i, gerr, werr)
		}
		if g, w := snapshot(gres), snapshot(wres); !reflect.DeepEqual(g, w) {
			t.Fatalf("packet %d: result\n%+v\nreference\n%+v", i, g, w)
		}
	}

	st := got.Stats()
	if !reflect.DeepEqual(st, led) {
		t.Fatalf("region ledger\n%+v\nreference\n%+v", st, led)
	}
	// Coverage guard: every tier shape must have occurred.
	if st.Forwarded == 0 || st.DPUServed == 0 || st.FallbackMissX86 == 0 || st.Fallback == 0 ||
		st.Degraded == 0 || st.NoRoute == 0 || st.FrontDrops["parse_error"] == 0 ||
		st.FrontDrops["fallback_error"] == 0 {
		t.Fatalf("corpus lost coverage: %+v", st)
	}
	sent := uint64(len(corpus))
	if sum := st.Forwarded + st.DPUServed + st.Fallback + st.Degraded + st.Dropped + st.NoRoute; sum+gatewayErrors(t, got, corpus) != sent {
		t.Fatalf("ledger books %d outcomes (+ gateway errors) for %d packets: %+v", sum, sent, st)
	}
	for ci := range got.Clusters {
		for ni, n := range got.Clusters[ci].AllNodes() {
			if g, w := n.GW.Stats(), want.Clusters[ci].AllNodes()[ni].GW.Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("gateway %s stats\n%+v\nreference\n%+v", n.ID, g, w)
			}
		}
	}
	if g, w := got.DPU.Stats(), want.DPU.Stats(); !reflect.DeepEqual(g, w) {
		t.Fatalf("DPU stats\n%+v\nreference\n%+v", g, w)
	}
	for i := range got.Fallback {
		if g, w := got.Fallback[i].Stats(), want.Fallback[i].Stats(); !reflect.DeepEqual(g, w) {
			t.Fatalf("x86 node %d stats\n%+v\nreference\n%+v", i, g, w)
		}
	}
	if snat := got.Fallback[0].Stats(); snat.SNATOut == 0 || snat.SessionsAlive == 0 {
		t.Fatalf("corpus never translated a session: %+v", snat)
	}
}

// gatewayErrors counts the corpus packets a down wrapped gateway rejected:
// they end in an error before any outcome is booked.
func gatewayErrors(t *testing.T, r *Region, corpus [][]byte) uint64 {
	t.Helper()
	var n uint64
	for _, raw := range corpus {
		var fm netpkt.FrontMeta
		if netpkt.ParseFront(raw, &fm) != nil || fm.VNI != 102 {
			continue
		}
		_, nidx, err := r.FrontEnd.Route(fm.VNI, fm.Flow.FastHash())
		if err != nil {
			t.Fatal(err)
		}
		live := r.Clusters[2].LiveNodes()
		if live[nidx%len(live)].GW.(*wrappedGW).down {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no corpus flow hashed onto the down node")
	}
	return n
}

// The software tiers run on the lane's parsed packet through preallocated
// scratch: a DPU-served packet, an x86-forwarded packet and an SNAT
// outbound translation (session already established) each cost zero
// allocations through Region.ProcessPacket.
func TestRegionSoftwareTiersZeroAlloc(t *testing.T) {
	r := singlePassWorld(t)
	tcp := netpkt.IPProtocolTCP
	cases := []struct {
		name string
		raw  []byte
		ok   func(Result) bool
	}{
		{"dpu-served", flowPacket(t, 105, "192.168.1.1", "192.168.0.5", tcp, 7),
			func(res Result) bool { return res.ViaDPU }},
		{"x86-forwarded", flowPacket(t, 105, "192.168.1.1", "192.168.0.9", tcp, 7),
			func(res Result) bool { return res.ViaFallback && !res.FallbackOut.ToInternet }},
		{"snat-outbound", flowPacket(t, 107, "192.168.1.1", "8.8.8.8", tcp, 7),
			func(res Result) bool { return res.ViaFallback && res.FallbackOut.ToInternet }},
	}
	now := t0()
	for _, c := range cases {
		if res, err := r.ProcessPacket(c.raw, now); err != nil || !c.ok(res) {
			t.Fatalf("%s: res=%+v err=%v", c.name, res, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			res, err := r.ProcessPacket(c.raw, now)
			if err != nil || !c.ok(res) {
				t.Fatalf("%s: res=%+v err=%v", c.name, res, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per packet, want 0", c.name, allocs)
		}
	}
}
