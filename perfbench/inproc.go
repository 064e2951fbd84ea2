package main

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"sailfish/internal/cluster"
	"sailfish/internal/controller"
	"sailfish/internal/heavyhitter"
	"sailfish/internal/placement"
	"sailfish/internal/slo"
	"sailfish/internal/tables"
	"sailfish/internal/trace"
	"sailfish/internal/xgwh"
)

// epoch anchors the virtual clock: packet i of a run happens at
// epoch + i µs, so table residency, SNAT ages and placement windows depend
// only on the packet index, never on how fast the host ran.
var epoch = time.Unix(1_700_000_000, 0)

func clockAt(i int) time.Time { return epoch.Add(time.Duration(i) * time.Microsecond) }

// Region shape shared by both in-process workloads.
const (
	regionClusters = 2
	fallbackNodes  = 2
	dpuDevices     = 2
	// Placement runs on the packet goroutine once per period.
	hwResidentShare  = 0.05 // hardware holds ~5% of the entry intent
	dpuResidentShare = 0.20 // the DPU ~20%
	maxWaterLevel    = 0.9
)

// world is one in-process deployment: a region driven through its public
// entry points plus the observers production attaches.
type world struct {
	st     *Stream
	region *cluster.Region
	ctl    *controller.Controller
	loop   *placement.Loop // ladder-churn only
	hh     *heavyhitter.Tracker
	rec    *trace.Recorder
	slo    *slo.Collector
	// idx is the next packet index; it drives the virtual clock.
	idx int
	// period is the packet count between placement cycles and the unit
	// throughput is sampled in.
	period int
	// poolIPs are the SNAT public addresses of the x86 pool.
	poolIPs map[netip.Addr]bool

	// Control-plane mirroring for the traced run. The placement loop
	// breaks ties between equally hot entries of different clusters in map
	// order (heavyhitter.HotEntries), so two identical worlds can choose
	// different moves. The reference world records each cycle's moves;
	// the replayed world runs no loop of its own and applies them instead,
	// so both see the same table writes at the same packet indices.
	moves     [][]placement.Event // reference: one slice per cycle
	pending   []placement.Event
	recording bool
	follow    *world // replayed world: whose moves to apply
	cycles    int    // replayed world: cycles applied so far
}

// recordMoves makes the world's placement loop log every move it makes.
func (w *world) recordMoves() {
	w.recording = true
	w.loop.SetEventSink(func(ev placement.Event) { w.pending = append(w.pending, ev) })
}

// followMoves replaces the world's placement loop with src's recorded
// moves.
func (w *world) followMoves(src *world) {
	w.loop = nil
	w.follow = src
}

// endCycle closes one placement cycle: the loop runs (and its moves are
// logged when recording), or the followed world's moves for this cycle
// are applied through the controller and the tracker window is reset, as
// the loop's WindowReset does.
func (w *world) endCycle() (placement.CycleReport, time.Duration, error) {
	if w.loop != nil {
		c0 := time.Now()
		rep := w.loop.RunCycle()
		d := time.Since(c0)
		if w.recording {
			w.moves = append(w.moves, w.pending)
			w.pending = nil
		}
		return rep, d, nil
	}
	if w.follow == nil {
		return placement.CycleReport{}, 0, nil
	}
	if w.cycles >= len(w.follow.moves) {
		return placement.CycleReport{}, 0, fmt.Errorf("no recorded moves for cycle %d", w.cycles)
	}
	for _, ev := range w.follow.moves[w.cycles] {
		if err := w.applyMove(ev); err != nil {
			return placement.CycleReport{}, 0, fmt.Errorf("cycle %d %s %v %v: %w", w.cycles, ev.Kind, ev.VNI, ev.DIP, err)
		}
	}
	w.cycles++
	w.hh.Reset()
	return placement.CycleReport{}, 0, nil
}

// applyMove performs one recorded placement move through the controller.
func (w *world) applyMove(ev placement.Event) error {
	var err error
	switch ev.Kind {
	case "promote":
		_, err = w.ctl.PromoteEntry(ev.VNI, ev.DIP)
	case "upgrade":
		if _, err = w.ctl.PromoteEntry(ev.VNI, ev.DIP); err == nil {
			_, err = w.ctl.DemoteEntryDPU(ev.VNI, ev.DIP)
		}
	case "demote":
		_, err = w.ctl.DemoteEntry(ev.VNI, ev.DIP)
	case "cascade", "park", "promote_dpu":
		_, err = w.ctl.PromoteEntryDPU(ev.VNI, ev.DIP)
	case "demote_dpu":
		_, err = w.ctl.DemoteEntryDPU(ev.VNI, ev.DIP)
	default:
		err = fmt.Errorf("unknown move kind %q", ev.Kind)
	}
	return err
}

// tenantEntries is tenant t's desired state over VMs [0, vms).
func tenantEntries(pop Population, t, vms int) controller.TenantEntries {
	vni := pop.VNI(t)
	te := controller.TenantEntries{VNI: vni}
	te.Routes = append(te.Routes, controller.RouteEntry{VNI: vni, Prefix: pop.Prefix(t),
		Route: tables.Route{Scope: tables.ScopeLocal}})
	for v := 0; v < vms; v++ {
		te.VMs = append(te.VMs, controller.VMEntry{VNI: vni, VM: pop.VM(t, v), NC: pop.NC(pop.NCIndex(t, v))})
	}
	return te
}

// buildWorld deploys the region for a workload over the stream's
// population. The controller places every tenant; tenant-mix installs
// them in hardware (all but the tail VM, which only the x86 pool holds),
// ladder-churn places them in software and lets the placement loop fill
// the hardware and DPU rungs.
func buildWorld(ladder bool, st *Stream, period int) (*world, error) {
	pop := st.Pop
	w := &world{st: st, period: period, poolIPs: make(map[netip.Addr]bool)}
	clock := func() time.Time { return clockAt(w.idx) }

	ccfg := cluster.DefaultConfig()
	if ladder {
		desired := float64(pop.Tenants * (1 + pop.VMs))
		ccfg.EntryCapacity = max(16, int(math.Ceil(hwResidentShare*desired/regionClusters/maxWaterLevel)))
		ccfg.DPUDevices = dpuDevices
		ccfg.DPUEntryCapacity = max(32, int(math.Ceil(dpuResidentShare*desired/maxWaterLevel)))
	}
	w.region = cluster.NewRegion(ccfg, regionClusters, fallbackNodes)
	for _, fb := range w.region.Fallback {
		for _, ip := range fb.Config().PublicIPs {
			w.poolIPs[ip] = true
		}
	}
	w.ctl = controller.New(controller.Config{SafeWaterLevel: 0.8, MirrorToFallback: true,
		Now: clock}, w.region)

	w.slo = slo.NewCollector()
	for t := 0; t < pop.Tenants; t++ {
		w.slo.Track(pop.VNI(t))
		if ladder {
			if _, err := w.ctl.PlaceTenantSoftware(tenantEntries(pop, t, pop.VMs)); err != nil {
				return nil, fmt.Errorf("place tenant %d: %w", t, err)
			}
			if pop.SNAT(t) {
				svc := pop.ServiceVNI(t)
				w.slo.Track(svc)
				if _, err := w.ctl.PlaceTenant(controller.TenantEntries{VNI: svc, ServiceVNI: true,
					Routes: []controller.RouteEntry{{VNI: svc, Prefix: netip.MustParsePrefix("0.0.0.0/0"),
						Route: tables.Route{Scope: tables.ScopeService}}}}); err != nil {
					return nil, fmt.Errorf("place service VNI of tenant %d: %w", t, err)
				}
			}
			continue
		}
		if _, err := w.ctl.PlaceTenant(tenantEntries(pop, t, pop.TailVM())); err != nil {
			return nil, fmt.Errorf("place tenant %d: %w", t, err)
		}
		tail := pop.TailVM()
		for _, fb := range w.region.Fallback {
			fb.VMNC.Insert(pop.VNI(t), pop.VM(t, tail), pop.NC(pop.NCIndex(t, tail)))
		}
	}

	// Production observers: flight recorder sampling 1-in-64 flows,
	// heavy-hitter tracker, SLO collector over every tenant.
	w.rec = trace.New(trace.Config{Shards: 8, SlotsPerShard: 4096, SampleShift: 6})
	w.region.EnableTracing(w.rec)
	w.hh = heavyhitter.NewTracker(1024)
	w.region.EnableHeavyHitters(w.hh)
	w.region.EnableSLO(w.slo)

	if ladder {
		vperiod := time.Duration(period) * time.Microsecond
		w.loop = placement.New(placement.Config{
			CoverageTarget:   1,
			PromoteShare:     2e-4,
			WarmShare:        3e-5,
			MinResidency:     2 * vperiod,
			ChurnBudget:      128,
			DPUChurnBudget:   256,
			MaxWaterLevel:    maxWaterLevel,
			DPUMaxWaterLevel: maxWaterLevel,
			WindowReset:      true,
			Now:              clock,
		}, w.ctl, w.hh)
	}
	return w, nil
}

// verdictOK checks a region result against the flow's intent: the right
// NC for VM traffic, a pool public address for Internet-bound traffic.
func (w *world) verdictOK(f int, res *cluster.Result) bool {
	fl := &w.st.Flows[f]
	switch {
	case res.ViaFallback:
		out := &res.FallbackOut
		if fl.Kind == kindInternet {
			return out.ToInternet && w.snatSourceOK(out.Out)
		}
		return !out.ToInternet && out.NC == fl.WantNC
	case res.ViaDPU:
		return fl.Kind == kindLocal && res.DPUOut.NC == fl.WantNC
	default:
		return fl.Kind == kindLocal && res.GW.Action == xgwh.ActionForward && res.GW.NC == fl.WantNC
	}
}

// snatSourceOK reports whether a de-tunneled SNAT frame (Ethernet + IPv4)
// leaves with a pool public address as its source.
func (w *world) snatSourceOK(frame []byte) bool {
	const srcAt = 14 + 12
	if len(frame) < srcAt+4 {
		return false
	}
	return w.poolIPs[netip.AddrFrom4([4]byte(frame[srcAt:srcAt+4]))]
}

// periodResult is one throughput sample: period packets plus, on
// ladder-churn, the placement cycle that follows them.
type periodResult struct {
	dur   time.Duration
	cycle time.Duration
	rep   placement.CycleReport
	fails int
	err   error // a followed world failed to apply a recorded move
}

// runPeriod drives one period of packets through Region.ProcessPacket and
// then, on ladder-churn, one placement cycle on the same goroutine. When
// lat is non-nil every eighth packet's service time is appended to it in
// microseconds.
func (w *world) runPeriod(lat *[]float64) periodResult {
	var pr periodResult
	start := time.Now()
	for j := 0; j < w.period; j++ {
		f := w.st.FlowAt(w.idx)
		pkt := w.st.Packet(f)
		now := clockAt(w.idx)
		var res cluster.Result
		var err error
		if lat != nil && j&7 == 0 {
			t0 := time.Now()
			res, err = w.region.ProcessPacket(pkt, now)
			*lat = append(*lat, float64(time.Since(t0).Nanoseconds())/1e3)
		} else {
			res, err = w.region.ProcessPacket(pkt, now)
		}
		if err != nil || !w.verdictOK(f, &res) {
			pr.fails++
		}
		w.idx++
	}
	pr.rep, pr.cycle, pr.err = w.endCycle()
	pr.dur = time.Since(start)
	return pr
}

// ledgerCheck verifies the region's outcome ledger over sent packets:
// every packet left through exactly one tier, the miss split sums back,
// and nothing was dropped or unroutable on these workloads.
func ledgerCheck(st cluster.RegionStats, sent uint64) error {
	if got := st.Forwarded + st.DPUServed + st.Fallback + st.Dropped + st.NoRoute; got != sent {
		return fmt.Errorf("ledger: forwarded %d + dpu %d + fallback %d + dropped %d + no_route %d = %d, sent %d",
			st.Forwarded, st.DPUServed, st.Fallback, st.Dropped, st.NoRoute, got, sent)
	}
	if st.FallbackMiss != st.DPUServed+st.FallbackMissX86 {
		return fmt.Errorf("ledger: fallback_miss %d != dpu_served %d + x86 %d",
			st.FallbackMiss, st.DPUServed, st.FallbackMissX86)
	}
	if st.Dropped != 0 || st.NoRoute != 0 {
		return fmt.Errorf("ledger: %d dropped, %d without route", st.Dropped, st.NoRoute)
	}
	return nil
}
