package sailfish

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sailfish/internal/controller"
	"sailfish/internal/netpkt"
	"sailfish/internal/traffic"
	"sailfish/internal/vswitch"
)

// A behavioral end-to-end replay: tenants are generated and placed through
// the controller, a packet stream sampled from the flow mix is pushed
// through the region, and the region's measured forward/fallback split must
// match the traffic mix — the packet-level counterpart of Fig 22's
// flow-level claim.
func TestReplayTrafficMixThroughRegion(t *testing.T) {
	d := NewDeployment(Options{Clusters: 2, NodesPerCluster: 2, FallbackNodes: 2})

	tcfg := traffic.DefaultConfig()
	tcfg.Tenants = 24
	tcfg.VMsPerTenant = 8
	gen := traffic.NewGenerator(tcfg)
	tenants := gen.Tenants()

	// Install most tenants in hardware; the last few stay software-only
	// (volatile entries), so their traffic takes the fallback path.
	const softwareOnly = 4
	hw := tenants[:len(tenants)-softwareOnly]
	sw := tenants[len(tenants)-softwareOnly:]
	for _, tn := range hw {
		te := controller.FromTrafficTenant(tn)
		if _, err := d.Controller.PlaceTenant(te); err != nil {
			t.Fatal(err)
		}
	}
	for _, tn := range sw {
		// Steering must know the tenant (the LB routes by VNI), but the
		// hardware tables never learn it; the x86 pool holds the state.
		placedOn := 0
		d.Region.FrontEnd.Steering.Assign(tn.VNI, placedOn)
		for _, fb := range d.Region.Fallback {
			fb.Routes.Insert(tn.VNI, tn.Prefix, Route{Scope: ScopeLocal})
			for i, vm := range tn.VMs {
				fb.VMNC.Insert(tn.VNI, vm, tn.NCs[i])
			}
		}
	}

	// Replay: 5% of packets belong to software-only tenants.
	rng := rand.New(rand.NewSource(42))
	const packets = 2000
	var wantSoftware int
	now := time.Unix(0, 0)
	for i := 0; i < packets; i++ {
		var tn traffic.Tenant
		if rng.Float64() < 0.05 {
			tn = sw[rng.Intn(len(sw))]
			wantSoftware++
		} else {
			tn = hw[rng.Intn(len(hw))]
		}
		src := tn.VMs[rng.Intn(len(tn.VMs))]
		dst := tn.VMs[rng.Intn(len(tn.VMs))]
		raw, err := BuildVXLAN(tn.VNI, src, dst, ProtoUDP, uint16(1000+i%60000), 80, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.DeliverVXLANAt(raw, now)
		if err != nil {
			t.Fatalf("packet %d (%v): %v", i, tn.VNI, err)
		}
		switch res.GW.Action {
		case ActionForward:
			// Hardware path: the NC must be the tenant's mapping.
			want := netip.Addr{}
			for j, vm := range tn.VMs {
				if vm == dst {
					want = tn.NCs[j]
				}
			}
			if res.GW.NC != want {
				t.Fatalf("packet %d: NC %v, want %v", i, res.GW.NC, want)
			}
		case ActionFallback:
			if !res.ViaFallback {
				t.Fatalf("packet %d: fallback not completed by x86", i)
			}
		default:
			t.Fatalf("packet %d dropped: %s", i, res.GW.DropReason)
		}
	}
	st := d.Stats()
	if got := int(st.Region.Fallback); got != wantSoftware {
		t.Fatalf("fallback packets %d, want %d", got, wantSoftware)
	}
	if st.Region.Forwarded != uint64(packets-wantSoftware) {
		t.Fatalf("forwarded %d, want %d", st.Region.Forwarded, packets-wantSoftware)
	}
	if st.Region.Dropped != 0 {
		t.Fatalf("drops: %+v", st.Region)
	}
}

// The software share of the replay must be a sliver of bytes when the mix
// uses the production fallback share (Fig 22's shape at packet level).
func TestReplayFallbackSliver(t *testing.T) {
	d := NewDeployment(Options{Clusters: 1, NodesPerCluster: 1, FallbackNodes: 1})
	if _, err := d.AddTenant(Tenant{
		VNI:    100,
		Prefix: mustPrefix("192.168.0.0/24"),
		VMs:    map[netip.Addr]netip.Addr{mustAddr("192.168.0.2"): mustAddr("10.1.1.2")},
	}); err != nil {
		t.Fatal(err)
	}
	// 10000 hardware packets, 2 software ones (route miss within the
	// steered VNI — a volatile destination not in hardware).
	raw, _ := BuildVXLAN(100, mustAddr("192.168.0.1"), mustAddr("192.168.0.2"), ProtoUDP, 1, 2, nil)
	miss, _ := BuildVXLAN(100, mustAddr("192.168.0.1"), mustAddr("10.99.0.1"), ProtoUDP, 3, 4, nil)
	now := time.Unix(0, 0)
	for i := 0; i < 10000; i++ {
		if _, err := d.DeliverVXLANAt(raw, now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := d.DeliverVXLANAt(miss, now); err != nil {
			t.Fatal(err)
		}
	}
	n := d.Region.Clusters[0].Nodes[0]
	gs := n.GW.Stats()
	ratio := float64(gs.FallbackBytes) / float64(gs.TotalBytes)
	if ratio > 0.001 {
		t.Fatalf("fallback byte ratio %.5f — not a sliver", ratio)
	}
	if gs.Fallback != 2 {
		t.Fatalf("fallback count %d", gs.Fallback)
	}
}

// Cross-region traffic (Table 1's "VM-Cross-region"): region A remote-routes
// the destination prefix to region B's gateway VIP over the CEN; region B
// completes delivery to the hosting NC. Two full Sailfish regions, one
// packet end to end.
func TestCrossRegionThroughCEN(t *testing.T) {
	regionA := NewDeployment(Options{Clusters: 1, NodesPerCluster: 1, FallbackNodes: 0})
	regionB := NewDeployment(Options{Clusters: 1, NodesPerCluster: 1, FallbackNodes: 0})

	// Tenant 500 lives in both regions (a global VPC): its US prefix is
	// local to B; region A routes that prefix remotely to B's VIP.
	bVIP := mustAddr("10.255.0.1") // region B's gateway address
	if _, err := regionB.AddTenant(Tenant{
		VNI:    500,
		Prefix: mustPrefix("172.20.0.0/16"),
		VMs:    map[netipAddr]netipAddr{mustAddr("172.20.0.9"): mustAddr("10.9.9.9")},
	}); err != nil {
		t.Fatal(err)
	}
	// Region A: the tenant's local prefix plus the remote route.
	if _, err := regionA.AddTenant(Tenant{
		VNI:    500,
		Prefix: mustPrefix("172.10.0.0/16"),
		VMs:    map[netipAddr]netipAddr{mustAddr("172.10.0.1"): mustAddr("10.1.1.1")},
	}); err != nil {
		t.Fatal(err)
	}
	for _, n := range regionA.Region.Clusters[0].Nodes {
		if err := n.GW.InstallRoute(500, mustPrefix("172.20.0.0/16"),
			Route{Scope: ScopeRemote, Tunnel: bVIP}); err != nil {
			t.Fatal(err)
		}
	}

	// VM in region A sends to the VM in region B.
	raw, err := BuildVXLAN(500, mustAddr("172.10.0.1"), mustAddr("172.20.0.9"), ProtoTCP, 7777, 443, []byte("xr"))
	if err != nil {
		t.Fatal(err)
	}
	resA, err := regionA.DeliverVXLANAt(raw, benchTime)
	if err != nil {
		t.Fatal(err)
	}
	if resA.GW.Action != ActionForward || resA.GW.NC != bVIP {
		t.Fatalf("region A: %+v", resA.GW)
	}
	// The CEN carries region A's output to region B's gateway.
	hop := make([]byte, len(resA.GW.Out))
	copy(hop, resA.GW.Out)
	resB, err := regionB.DeliverVXLANAt(hop, benchTime)
	if err != nil {
		t.Fatal(err)
	}
	if resB.GW.Action != ActionForward || resB.GW.NC != mustAddr("10.9.9.9") {
		t.Fatalf("region B: %+v (%s)", resB.GW, resB.GW.DropReason)
	}
	// The inner frame survived both regions intact.
	var p netpkt.Parser
	var pkt netpkt.GatewayPacket
	if err := p.Parse(resB.GW.Out, &pkt); err != nil {
		t.Fatal(err)
	}
	if pkt.InnerSrc() != mustAddr("172.10.0.1") || pkt.InnerDst() != mustAddr("172.20.0.9") {
		t.Fatalf("inner frame corrupted: %v -> %v", pkt.InnerSrc(), pkt.InnerDst())
	}
	if string(pkt.InnerTCP.Payload()) != "xr" {
		t.Fatal("payload corrupted across regions")
	}
}

// The complete Fig 1/Fig 2 loop: VM → vSwitch (encap) → region gateway
// (route + rewrite) → destination vSwitch (decap) → VM inbox.
func TestVMToVMThroughFullStack(t *testing.T) {
	d := NewDeployment(Options{Clusters: 1, NodesPerCluster: 2, FallbackNodes: 0})
	vm1, vm2 := mustAddr("192.168.10.2"), mustAddr("192.168.10.3")
	nc1, nc2 := mustAddr("10.1.1.11"), mustAddr("10.1.1.12")
	if _, err := d.AddTenant(Tenant{
		VNI:    100,
		Prefix: mustPrefix("192.168.10.0/24"),
		VMs:    map[netipAddr]netipAddr{vm1: nc1, vm2: nc2},
	}); err != nil {
		t.Fatal(err)
	}
	gwVIP := mustAddr("10.255.0.1")
	vs1 := vswitch.New(nc1, gwVIP)
	vs2 := vswitch.New(nc2, gwVIP)
	vs1.AttachVM(100, vm1)
	vs2.AttachVM(100, vm2)

	// vm1 sends to vm2: different NCs, so the vSwitch tunnels to the
	// gateway.
	out, err := vs1.Send(vm1, vm2, ProtoTCP, 5555, 80, []byte("full stack"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Local {
		t.Fatal("cross-NC traffic handled locally")
	}
	res, err := d.DeliverVXLANAt(out.Wire, benchTime)
	if err != nil {
		t.Fatal(err)
	}
	if res.GW.Action != ActionForward || res.GW.NC != nc2 {
		t.Fatalf("gateway verdict: %+v", res.GW)
	}
	// The rewritten frame lands at vm2's vSwitch.
	del, err := vs2.Receive(res.GW.Out)
	if err != nil {
		t.Fatal(err)
	}
	if del.VM != vm2 || del.Src != vm1 || string(del.Payload) != "full stack" {
		t.Fatalf("delivery = %+v", del)
	}
	if got := vs2.Inbox(vm2); len(got) != 1 {
		t.Fatalf("inbox = %v", got)
	}
	// The reply takes the same machinery in reverse.
	back, err := vs2.Send(vm2, vm1, ProtoTCP, 80, 5555, []byte("ack"))
	if err != nil {
		t.Fatal(err)
	}
	res, err = d.DeliverVXLANAt(back.Wire, benchTime)
	if err != nil || res.GW.NC != nc1 {
		t.Fatalf("reply: %+v %v", res.GW, err)
	}
	if _, err := vs1.Receive(res.GW.Out); err != nil {
		t.Fatal(err)
	}
	if got := vs1.Inbox(vm1); len(got) != 1 || string(got[0].Payload) != "ack" {
		t.Fatalf("reply inbox = %v", got)
	}
}

// Chaos: random node/port/cluster failures and recoveries interleaved with
// traffic. The safety invariant is absolute: a forwarded packet always goes
// to the destination VM's correct NC; failures may surface as explicit
// errors (no capacity) but never as misdelivery.
func TestChaosFailuresNeverMisdeliver(t *testing.T) {
	d := NewDeployment(Options{Clusters: 2, NodesPerCluster: 3, FallbackNodes: 1})
	type vmRec struct {
		vni VNI
		vm  netipAddr
		nc  netipAddr
	}
	var recs []vmRec
	for i := 0; i < 8; i++ {
		vni := VNI(100 + i)
		vms := map[netipAddr]netipAddr{}
		for j := 0; j < 4; j++ {
			vm := netip.AddrFrom4([4]byte{192, 168, byte(i), byte(10 + j)})
			nc := netip.AddrFrom4([4]byte{10, 1, byte(i), byte(10 + j)})
			vms[vm] = nc
			recs = append(recs, vmRec{vni, vm, nc})
		}
		if _, err := d.AddTenant(Tenant{
			VNI:    vni,
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 168, byte(i), 0}), 24),
			VMs:    vms,
		}); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(77))
	now := time.Unix(0, 0)
	var delivered, unavailable int
	for step := 0; step < 400; step++ {
		// Random fault/recovery action.
		c := d.Region.Clusters[rng.Intn(len(d.Region.Clusters))]
		switch rng.Intn(6) {
		case 0:
			c.FailNode(rng.Intn(len(c.Nodes)))
		case 1:
			c.RestoreNode(rng.Intn(len(c.Nodes)))
		case 2:
			n := c.Nodes[rng.Intn(len(c.Nodes))]
			n.FailPort(rng.Intn(8))
		case 3:
			n := c.Nodes[rng.Intn(len(c.Nodes))]
			n.RestorePort(rng.Intn(8))
		case 4:
			d.Region.FailoverCluster(c.ID)
		case 5:
			d.Region.FailbackCluster(c.ID)
		}
		// Traffic burst against random destinations.
		for k := 0; k < 5; k++ {
			to := recs[rng.Intn(len(recs))]
			src := netip.AddrFrom4([4]byte{192, 168, byte(int(to.vni) - 100), 9})
			raw, err := BuildVXLAN(to.vni, src, to.vm, ProtoUDP, uint16(rng.Intn(60000)+1), 80, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.DeliverVXLANAt(raw, now)
			if err != nil {
				// Acceptable: no live nodes right now.
				unavailable++
				continue
			}
			if res.GW.Action != ActionForward {
				t.Fatalf("step %d: unexpected action %v (%s)", step, res.GW.Action, res.GW.DropReason)
			}
			if res.GW.NC != to.nc {
				t.Fatalf("step %d: MISDELIVERY %v -> %v, want %v", step, to.vm, res.GW.NC, to.nc)
			}
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("chaos killed all delivery — test not exercising the data path")
	}
	t.Logf("chaos: %d delivered, %d unavailable", delivered, unavailable)
}
