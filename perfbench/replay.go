package main

import (
	"fmt"
	"time"

	"sailfish/internal/cluster"
	"sailfish/internal/netpkt"
	"sailfish/internal/trace"
	"sailfish/internal/xgwh"
)

// Layers the traced run attributes time to, named by module.
const (
	layerNetpkt      = iota // netpkt.ParseFront + flow hash
	layerLB                 // FrontEnd.Route: steering + ECMP
	layerHeavyHitter        // heavy-hitter Observe
	layerCluster            // lane bookkeeping between the calls below
	layerXGWH               // node gateway: pipeline, lookups, rewrite
	layerDPU                // Region.DPU.ProcessOn
	layerX86                // Fallback[i].ProcessFallback (+ SNAT)
	layerPlacement          // placement.Loop.RunCycle (+ controller pushes)
	numLayers
)

var layerNames = [numLayers]string{"netpkt", "lb", "heavyhitter", "cluster", "xgwh", "xgwdpu", "xgw86", "placement"}

// span is one recorded call into a layer, kept for the first packets of a
// traced run and written out when the run ends. Parent is the index of the
// enclosing lane span (-1 for roots).
type span struct {
	Packet int    `json:"packet"`
	Layer  string `json:"layer"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans held for the write-out.
const maxKeptSpans = 16384

// tracer times the replay. Boundaries are monotonic offsets from base;
// every interval between two consecutive readings is charged to exactly
// one layer minus the calibrated cost of one clock reading, so the layer
// self times partition the traced lane time.
type tracer struct {
	base  time.Time
	clock int64 // calibrated cost of one reading, ns
	self  [numLayers]int64
	spans []span
	// laneSpan is the index of the current packet's root span in spans,
	// or -1 once the keep budget is spent.
	laneSpan int
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), laneSpan: -1}
	t.clock = calibrateClock(t.base)
	return t
}

// calibrateClock returns the median cost of one monotonic clock reading.
func calibrateClock(base time.Time) int64 {
	const reads = 200_000
	var samples []float64
	for k := 0; k < 5; k++ {
		t0 := time.Since(base)
		var sink time.Duration
		for i := 0; i < reads; i++ {
			sink += time.Since(base)
		}
		t1 := time.Since(base)
		if sink < 0 {
			panic("monotonic clock ran backwards")
		}
		samples = append(samples, float64(t1-t0)/reads)
	}
	return int64(median(samples))
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// charge books the interval [from, to) to layer l.
func (t *tracer) charge(l int, from, to int64) {
	t.self[l] += to - from - t.clock
}

// keep records a span for the write-out while the budget lasts.
func (t *tracer) keep(pkt, l, parent int, from, to int64) int {
	if len(t.spans) >= maxKeptSpans {
		return -1
	}
	t.spans = append(t.spans, span{Packet: pkt, Layer: layerNames[l], Parent: parent, Start: from, End: to})
	return len(t.spans) - 1
}

// call times one child call of the current packet's lane span.
func (t *tracer) call(pkt, l int, from, to int64) {
	t.charge(l, from, to)
	if t.laneSpan >= 0 {
		t.keep(pkt, l, t.laneSpan, from, to)
	}
}

// ledger is the replay's own copy of the region outcome counters.
type ledger struct {
	forwarded, dpuServed, fallback, fallbackMiss, fallbackMissX86, dropped, noRoute uint64
	passes, gwCalls, dpuCalls                                                       uint64
}

func (l ledger) regionStats() cluster.RegionStats {
	return cluster.RegionStats{Forwarded: l.forwarded, DPUServed: l.dpuServed, Fallback: l.fallback,
		FallbackMiss: l.fallbackMiss, FallbackMissX86: l.fallbackMissX86, Dropped: l.dropped, NoRoute: l.noRoute}
}

// replayer re-runs the serial lane of a world's region through the layers'
// public entry points, in the order cluster.Lane uses them, with a span
// around each call. It books the region ledger, the SLO collector and the
// flight recorder exactly as the lane does, so a replayed world must end
// with the same counters as one driven through Region.ProcessPacket.
type replayer struct {
	w      *world
	t      *tracer
	led    ledger
	feDev  uint16
	nodeID map[*cluster.Node]uint16
}

func newReplayer(w *world, t *tracer) *replayer {
	rp := &replayer{w: w, t: t, nodeID: make(map[*cluster.Node]uint16)}
	// Interning is idempotent: these are the ids Region.EnableTracing
	// assigned.
	rp.feDev = w.rec.InternDevice("frontend")
	for _, c := range w.region.Clusters {
		for _, half := range []*cluster.Cluster{c, c.Backup} {
			if half == nil {
				continue
			}
			for _, n := range half.Nodes {
				rp.nodeID[n] = w.rec.InternDevice(n.ID)
			}
		}
	}
	return rp
}

// frontDrop mirrors the lane's front-end drop booking.
func (rp *replayer) frontDrop(reason string, flowHash uint64, vni netpkt.VNI, now time.Time) {
	rp.w.slo.Drop(vni)
	rp.w.rec.Record(trace.Event{TimeNs: now.UnixNano(), FlowHash: flowHash, VNI: vni, Dev: rp.feDev,
		Stage: trace.StageFront, Verdict: trace.VerdictDrop, Code: frontDropCode(reason)})
}

// frontDropCode is the recorder code of a front-end drop reason.
func frontDropCode(reason string) uint8 {
	for i, n := range cluster.FrontDropReasonNames() {
		if n == reason {
			return uint8(i + 1)
		}
	}
	return 0
}

// packet replays one packet of index i and reports whether its verdict
// matches the flow's intent.
func (rp *replayer) packet(i int) bool {
	w, t := rp.w, rp.t
	r := w.region
	f := w.st.FlowAt(i)
	raw := w.st.Packet(f)
	now := clockAt(i)
	fl := &w.st.Flows[f]

	// Every 64th packet's spans are kept for the write-out; the lane span
	// is the root its calls hang off.
	t.laneSpan = -1
	if i%64 == 0 {
		t.laneSpan = t.keep(i, layerCluster, -1, 0, 0)
	}
	t0 := t.now()
	if t.laneSpan >= 0 {
		t.spans[t.laneSpan].Start = t0
	}
	var fm netpkt.FrontMeta
	perr := netpkt.ParseFront(raw, &fm)
	flowHash := fm.Flow.FastHash()
	t1 := t.now()
	t.call(i, layerNetpkt, t0, t1)
	if perr != nil {
		rp.led.dropped++
		rp.frontDrop("parse_error", 0, 0, now)
		rp.closeLane(t1)
		return false
	}
	clusterID, nodeIdx, rerr := r.FrontEnd.Route(fm.VNI, flowHash)
	t2 := t.now()
	t.call(i, layerLB, t1, t2)
	if rerr != nil {
		rp.led.noRoute++
		rp.frontDrop("no_route", flowHash, fm.VNI, now)
		rp.closeLane(t2)
		return false
	}
	w.hh.Observe(clusterID, fm.VNI, flowHash, fm.Flow.Dst, fm.WireLen)
	t3 := t.now()
	t.call(i, layerHeavyHitter, t2, t3)

	// Lane bookkeeping before the gateway: cluster mode, node and port
	// pick, the sampled steering event. No workload degrades a cluster, so
	// the replay leaves the lane's degraded-mode path out; a degraded
	// cluster books nothing here and fails the ledger comparison.
	var node *cluster.Node
	var reason string
	switch {
	case !r.ClusterEnabled(clusterID):
		reason = "cluster_disabled"
	case r.DegradedCluster(clusterID):
		rp.closeLane(t.now())
		return false
	default:
		c := r.Clusters[clusterID]
		if r.OnBackup(clusterID) {
			c = c.Backup
		}
		live := c.LiveNodes()
		if len(live) == 0 {
			reason = "no_live_node"
			break
		}
		node = live[nodeIdx%len(live)]
		if _, ok := node.PickPort(flowHash); !ok {
			reason = "no_healthy_port"
			node = nil
		}
	}
	if node == nil {
		rp.led.dropped++
		rp.frontDrop(reason, flowHash, fm.VNI, now)
		rp.closeLane(t.now())
		return false
	}
	if w.rec.Sampled(flowHash) {
		w.rec.Record(trace.Event{TimeNs: now.UnixNano(), FlowHash: flowHash, VNI: fm.VNI,
			Dev: rp.nodeID[node], Stage: trace.StageFront, Verdict: trace.VerdictSteered})
	}
	t4 := t.now()
	t.charge(layerCluster, t3, t4)
	res, gerr := node.GW.ProcessPacket(raw, now)
	t5 := t.now()
	t.call(i, layerXGWH, t4, t5)
	rp.led.gwCalls++
	rp.led.passes += uint64(res.Passes)
	if gerr != nil {
		rp.closeLane(t5)
		return false
	}
	ok := false
	last := t5
	vni := fm.VNI
	switch res.Action {
	case xgwh.ActionForward:
		rp.led.forwarded++
		w.slo.Forward(vni)
		ok = fl.Kind == kindLocal && res.NC == fl.WantNC
	case xgwh.ActionDrop:
		rp.led.dropped++
		w.slo.Drop(vni)
	case xgwh.ActionFallback:
		served := false
		if res.FallbackMiss {
			rp.led.fallbackMiss++
			w.slo.FallbackMiss(vni)
			if dpu := r.DPU; dpu != nil {
				dev := int(flowHash % uint64(dpu.Devices()))
				d0 := t.now()
				t.charge(layerCluster, last, d0)
				dres, hit, derr := dpu.ProcessOn(dev, raw, now)
				d1 := t.now()
				t.call(i, layerDPU, d0, d1)
				last = d1
				rp.led.dpuCalls++
				switch {
				case derr != nil:
					rp.led.dropped++
					rp.frontDrop("dpu_error", flowHash, vni, now)
					rp.closeLane(last)
					return false
				case hit:
					rp.led.dpuServed++
					w.slo.DPUServed(vni)
					ok = fl.Kind == kindLocal && dres.NC == fl.WantNC
					served = true
				}
			}
			if !served {
				rp.led.fallbackMissX86++
				w.slo.FallbackMissX86(vni)
			}
		}
		if served {
			break
		}
		rp.led.fallback++
		w.slo.Fallback(vni)
		if len(r.Fallback) == 0 {
			break
		}
		fbIdx := int(flowHash % uint64(len(r.Fallback)))
		x0 := t.now()
		t.charge(layerCluster, last, x0)
		fres, ferr := r.Fallback[fbIdx].ProcessFallback(raw, now)
		x1 := t.now()
		t.call(i, layerX86, x0, x1)
		last = x1
		switch {
		case ferr != nil:
			rp.led.dropped++
			rp.frontDrop("fallback_error", flowHash, vni, now)
		case fl.Kind == kindInternet:
			ok = fres.ToInternet && w.snatSourceOK(fres.Out)
		default:
			ok = !fres.ToInternet && fres.NC == fl.WantNC
		}
	}
	rp.closeLane(last)
	return ok
}

// closeLane charges the lane's trailing bookkeeping and closes its span.
func (rp *replayer) closeLane(last int64) {
	t := rp.t
	end := t.now()
	t.charge(layerCluster, last, end)
	if t.laneSpan >= 0 {
		t.spans[t.laneSpan].End = end
	}
}

// replay drives n packets from the world's current index through the
// traced lane. At each period boundary the followed world's recorded
// placement moves are applied; that replay machinery is timed apart and
// charged to no layer. It returns the intent mismatches and the time spent
// applying moves.
func (rp *replayer) replay(n int) (fails int, moves time.Duration, err error) {
	w := rp.w
	for done := 0; done < n; done++ {
		if !rp.packet(w.idx) {
			fails++
		}
		w.idx++
		if w.follow != nil && w.idx%w.period == 0 {
			m0 := time.Now()
			if _, _, err := w.endCycle(); err != nil {
				return fails, moves, err
			}
			moves += time.Since(m0)
		}
	}
	return fails, moves, nil
}

// compareWorlds checks that the replayed world b ended in exactly the
// state of the reference world a driven through Region.ProcessPacket: the
// region ledger against the replay's own, and every subsystem's counters.
func compareWorlds(a, b *world, led ledger) error {
	want := a.region.Stats()
	got := led.regionStats()
	if want.Forwarded != got.Forwarded || want.DPUServed != got.DPUServed || want.Fallback != got.Fallback ||
		want.FallbackMiss != got.FallbackMiss || want.FallbackMissX86 != got.FallbackMissX86 ||
		want.Dropped != got.Dropped || want.NoRoute != got.NoRoute {
		return fmt.Errorf("traced replay ledger %+v differs from the untraced region's %+v", got, want)
	}
	var ga, gb [3]uint64
	for ci := range a.region.Clusters {
		for ni, n := range a.region.Clusters[ci].Nodes {
			sa, sb := n.GW.Stats(), b.region.Clusters[ci].Nodes[ni].GW.Stats()
			ga = [3]uint64{ga[0] + sa.Forwarded, ga[1] + sa.Fallback, ga[2] + sa.Dropped}
			gb = [3]uint64{gb[0] + sb.Forwarded, gb[1] + sb.Fallback, gb[2] + sb.Dropped}
		}
	}
	if ga != gb {
		return fmt.Errorf("gateway counters differ: untraced %v, traced %v", ga, gb)
	}
	for i := range a.region.Fallback {
		sa, sb := a.region.Fallback[i].Stats(), b.region.Fallback[i].Stats()
		if sa.Forwarded != sb.Forwarded || sa.SNATOut != sb.SNATOut || sa.Dropped != sb.Dropped {
			return fmt.Errorf("x86 node %d counters differ: untraced %+v, traced %+v", i, sa, sb)
		}
	}
	if a.region.DPU != nil {
		sa, sb := a.region.DPU.Stats(), b.region.DPU.Stats()
		if sa.Forwarded != sb.Forwarded || sa.Misses() != sb.Misses() || sa.Dropped != sb.Dropped {
			return fmt.Errorf("DPU counters differ: untraced %+v, traced %+v", sa, sb)
		}
	}
	if a.hh.TotalPackets() != b.hh.TotalPackets() {
		return fmt.Errorf("heavy-hitter totals differ: %d vs %d", a.hh.TotalPackets(), b.hh.TotalPackets())
	}
	if ta, tb := a.slo.Total(), b.slo.Total(); ta != tb {
		return fmt.Errorf("SLO totals differ: untraced %+v, traced %+v", ta, tb)
	}
	if ra, rb := a.ctl.ResidentEntryCount(), b.ctl.ResidentEntryCount(); ra != rb {
		return fmt.Errorf("hardware-resident entries differ: %d vs %d", ra, rb)
	}
	if ra, rb := a.ctl.WarmEntryCount(), b.ctl.WarmEntryCount(); ra != rb {
		return fmt.Errorf("DPU-resident entries differ: %d vs %d", ra, rb)
	}
	return nil
}
