package cluster

import (
	"time"

	"sailfish/internal/heavyhitter"
	"sailfish/internal/lb"
	"sailfish/internal/netpkt"
	"sailfish/internal/slo"
	"sailfish/internal/trace"
	"sailfish/internal/xgw86"
	"sailfish/internal/xgwdpu"
	"sailfish/internal/xgwh"
)

// Lane is one run-to-completion execution context over the region: the
// steering → XGW-H → fallback pipeline of ProcessPacket, carrying its own
// packet scratch, stats counters and (optionally) its own flight recorder
// and heavy-hitter tracker. The region owns one built-in serial lane backing
// the classic single-goroutine entry points; the sharded plane creates one
// lane per shard and drives them concurrently — per-flow affinity comes from
// the caller sharding by flow hash, and everything a lane touches outside
// its own fields is either read-pure at traffic time (steering tables,
// cluster modes — the same control-plane quiescence contract the Driver
// documents) or internally synchronized (gateway tables, SNAT, counters).
//
// The lane is a single pass: each packet is parsed once into the lane's
// PacketScratch, its flow hash is computed once, and XGW-H, the DPU and
// XGW-x86 all consume that parsed packet, writing their verdicts in place
// into the caller's Result. Hardware gateways run on the lane scratch, so N
// lanes drive one chip model without serializing. Gateways wrapped by fault
// injectors (anything that is not a *xgwh.Gateway) only take raw bytes and
// keep their single-threaded scratch, and DPU devices and XGW-x86 nodes keep
// single-threaded serialize buffers, so concurrent lanes take a per-node
// mutex there — the software tiers are the slow path by design, and chaos
// wrappers are not performance subjects.
type Lane struct {
	r   *Region
	ctr *regionCounters
	sc  *xgwh.PacketScratch
	// serial marks the region's built-in lane: single-goroutine by
	// contract, entering gateway wrappers, DPU devices and fallback nodes
	// without locks.
	serial bool

	tr    *trace.Recorder
	trDev uint16
	hh    *heavyhitter.Tracker
	slo   *slo.Collector
}

// NewLane returns an independent lane over the region with its own counters
// and packet scratch, inheriting the region's SLO collector (per-VNI cells
// are internally atomic, so every lane shares one collector). Create every
// lane before traffic starts.
func (r *Region) NewLane() *Lane {
	return &Lane{r: r, ctr: &regionCounters{}, sc: xgwh.NewPacketScratch(), slo: r.slo}
}

// EnableTracing points the lane's events (front-end steering/drops and the
// gateway verdicts processed through this lane's scratch) at rec. The
// recorder must already be wired into the region with Region.EnableTracing —
// that call interns every device and registers each stage's taxonomy, so
// per-shard recorders built in the same order intern identical id tables and
// their tallies merge by summation (trace.MergeDropCounts).
func (ln *Lane) EnableTracing(rec *trace.Recorder) {
	ln.tr = rec
	if rec != nil {
		ln.trDev = rec.InternDevice("frontend")
	}
	ln.sc.SetRecorder(rec)
}

// EnableHeavyHitters attaches the tracker this lane's steering decisions
// report into; per-shard trackers are merged on scrape
// (heavyhitter.Merge). Call before traffic starts.
func (ln *Lane) EnableHeavyHitters(t *heavyhitter.Tracker) { ln.hh = t }

// Stats snapshots the lane's own counters (the built-in lane's are the
// region's). Each cell is read atomically.
func (ln *Lane) Stats() RegionStats { return ln.ctr.snapshot() }

// AddStatsInto accumulates the lane's counters into dst, allocating dst's
// FrontDrops map on first use — the scrape-side merge a sharded plane sums
// its lanes with.
func (ln *Lane) AddStatsInto(dst *RegionStats) {
	if dst.FrontDrops == nil {
		dst.FrontDrops = make(map[string]uint64, numFrontDropReasons-1)
	}
	ln.ctr.addInto(dst)
}

// frontDrop books a front-end drop under its interned reason and emits the
// always-on flight-recorder event. The per-tenant SLO ledger books every
// front-drop reason as tenant loss — including no_route, which the region's
// own ledger counts beside dropped rather than inside it: from the tenant's
// side a packet with no steering rule is a lost packet.
func (ln *Lane) frontDrop(code uint8, flowHash uint64, vni netpkt.VNI, now time.Time) {
	ln.ctr.frontDrops[code].Add(1)
	if s := ln.slo; s != nil {
		s.Drop(vni)
	}
	if tr := ln.tr; tr != nil {
		tr.Record(trace.Event{
			TimeNs:   now.UnixNano(),
			FlowHash: flowHash,
			VNI:      vni,
			Dev:      ln.trDev,
			Stage:    trace.StageFront,
			Verdict:  trace.VerdictDrop,
			Code:     code,
		})
	}
}

// processGW runs the lane's parsed packet through a cluster node's gateway,
// writing the verdict into *out. Hardware gateways consume the lane's
// scratch directly (safe concurrently). Anything else — fault-injection
// wrappers — only speaks raw bytes and parses into its node-embedded
// scratch: directly on the serial lane, under the node mutex on shard lanes.
func (ln *Lane) processGW(node *Node, raw []byte, now time.Time, out *xgwh.ForwardResult) error {
	if g, ok := node.GW.(*xgwh.Gateway); ok {
		return g.ProcessParsed(ln.sc, now, out)
	}
	var err error
	if ln.serial {
		*out, err = node.GW.ProcessPacket(raw, now)
		return err
	}
	node.mu.Lock()
	*out, err = node.GW.ProcessPacket(raw, now)
	node.mu.Unlock()
	return err
}

// processFallback completes the lane's parsed packet on fallback pool node
// idx. XGW-x86 nodes keep a single-threaded reencap scratch, so shard lanes
// serialize per node.
func (ln *Lane) processFallback(idx int, now time.Time, out *xgw86.FallbackResult) error {
	fb := ln.r.Fallback[idx]
	if ln.serial {
		return fb.ProcessParsed(ln.sc.Packet(), now, out)
	}
	ln.r.fbMu[idx].Lock()
	defer ln.r.fbMu[idx].Unlock()
	return fb.ProcessParsed(ln.sc.Packet(), now, out)
}

// processDPU attempts the warm-tier lookup of the lane's parsed packet on
// DPU device dev. Devices keep single-threaded scratch like x86 nodes, so
// shard lanes serialize per device.
func (ln *Lane) processDPU(dev int, now time.Time, out *xgwdpu.ForwardResult) (bool, error) {
	if ln.serial {
		return ln.r.DPU.ProcessParsedOn(dev, ln.sc.Packet(), now, out)
	}
	ln.r.dpuMu[dev].Lock()
	defer ln.r.dpuMu[dev].Unlock()
	return ln.r.DPU.ProcessParsedOn(dev, ln.sc.Packet(), now, out)
}

// Process carries one packet through the region on this lane: steering →
// ECMP → XGW-H → (optionally) DPU → XGW-x86. Semantics and accounting are
// identical to Region.ProcessPacket — which is this method on the region's
// built-in lane.
func (ln *Lane) Process(raw []byte, now time.Time) (Result, error) {
	var res Result
	err := ln.process(raw, now, nil, nil, &res)
	return res, err
}

// process is the lane's single pass over one packet: one full parse into
// the lane scratch, one flow hash (memoized on the parsed packet), and
// every tier's verdict written in place into *out, which must be zero on
// entry. steer and memo carry ProcessBatch's per-VNI memoization and are
// nil on the single-shot path.
func (ln *Lane) process(raw []byte, now time.Time, steer *steerMemo, memo *clusterMemo, out *Result) error {
	obs := ln.r.obs
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	if err := ln.sc.Parse(raw); err != nil {
		ln.ctr.dropped.Add(1)
		ln.frontDrop(fDropParseError, 0, 0, now)
		return err
	}
	pkt := ln.sc.Packet()
	if obs != nil {
		t1 := time.Now()
		obs.Parse.Observe(float64(t1.Sub(t0).Nanoseconds()))
		t0 = t1
	}
	vni, flowHash := pkt.VXLAN.VNI, pkt.FlowHash()
	clusterID, nodeIdx, err := ln.route(vni, flowHash, steer)
	if err != nil {
		ln.ctr.noRoute.Add(1)
		ln.frontDrop(fDropNoRoute, flowHash, vni, now)
		return err
	}
	if obs != nil {
		obs.Steer.Observe(float64(time.Since(t0).Nanoseconds()))
	}
	if hh := ln.hh; hh != nil {
		hh.Observe(clusterID, vni, flowHash, pkt.InnerDst(), pkt.WireLen)
	}
	return ln.deliver(raw, vni, flowHash, clusterID, nodeIdx, now, memo, out)
}

// route steers a packet to its cluster and ECMP node. With a batch memo the
// VNI's steering decision is reused across consecutive same-VNI packets;
// VNIs with an active migration ramp route per flow and bypass it.
func (ln *Lane) route(vni netpkt.VNI, flowHash uint64, steer *steerMemo) (clusterID, nodeIdx int, err error) {
	fe := ln.r.FrontEnd
	if steer == nil {
		return fe.Route(vni, flowHash)
	}
	if steer.ok && steer.vni == vni {
		if ni, ok := steer.group.PickHash(flowHash); ok {
			return steer.cluster, ni, nil
		}
		// Group emptied out: take the uncached path for the canonical
		// error and stats.
		steer.ok = false
	}
	if clusterID, nodeIdx, err = fe.Route(vni, flowHash); err != nil {
		return 0, 0, err
	}
	if cl, g, ramped, rerr := fe.RouteInfo(vni); rerr == nil && !ramped {
		*steer = steerMemo{ok: true, vni: vni, cluster: cl, group: g}
	} else {
		steer.ok = false
	}
	return clusterID, nodeIdx, nil
}

// deliver carries a routed packet into its cluster and, when steered there,
// the DPU tier and the XGW-x86 fallback pool, writing each tier's verdict
// into *out. memo may be nil (single-shot path). vni is the parsed tenant
// id, carried along for flight-recorder events.
//
// Each packet is booked under exactly one outcome — forwarded, dpu-served,
// fallback, degraded, dropped (or, before delivery, no-route): a pool or
// DPU error books dropped alone, and fallback/degraded are booked only once
// the pool completed the packet. The per-tenant SLO ledger mirrors every
// region counter site (one increment beside each ctr.* add), so the two
// ledgers reconcile field for field.
func (ln *Lane) deliver(raw []byte, vni netpkt.VNI, flowHash uint64, clusterID, nodeIdx int, now time.Time, memo *clusterMemo, out *Result) error {
	r := ln.r
	var disabled, degraded bool
	var c *Cluster
	if memo != nil && memo.ok && memo.clusterID == clusterID {
		disabled, degraded, c = memo.disabled, memo.degraded, memo.serving
	} else {
		disabled = r.disabled[clusterID]
		degraded = r.degraded[clusterID]
		c = r.serving(clusterID)
		if memo != nil {
			*memo = clusterMemo{ok: true, clusterID: clusterID,
				disabled: disabled, degraded: degraded, serving: c}
		}
	}
	if disabled {
		ln.ctr.dropped.Add(1)
		ln.frontDrop(fDropClusterDisabled, flowHash, vni, now)
		return ErrClusterDisabled
	}
	sloCol := ln.slo
	if degraded {
		// Graceful degradation: both main and backup impaired — the
		// XGW-x86 pool carries the cluster's residual traffic.
		out.ClusterID = clusterID
		if len(r.Fallback) == 0 {
			ln.ctr.dropped.Add(1)
			ln.frontDrop(fDropNoLiveNode, flowHash, vni, now)
			return ErrNoLiveNodes
		}
		if ferr := ln.processFallback(int(flowHash%uint64(len(r.Fallback))), now, &out.FallbackOut); ferr != nil {
			ln.ctr.dropped.Add(1)
			ln.frontDrop(fDropFallbackError, flowHash, vni, now)
			return ferr
		}
		ln.ctr.degraded.Add(1)
		if sloCol != nil {
			sloCol.Degraded(vni)
		}
		out.GW.Action = xgwh.ActionFallback
		out.ViaFallback = true
		return nil
	}
	live := c.LiveNodes()
	if len(live) == 0 {
		ln.ctr.dropped.Add(1)
		ln.frontDrop(fDropNoLiveNode, flowHash, vni, now)
		return ErrNoLiveNodes
	}
	node := live[nodeIdx%len(live)]
	port, ok := node.PickPort(flowHash)
	if !ok {
		ln.ctr.dropped.Add(1)
		ln.frontDrop(fDropNoHealthyPort, flowHash, vni, now)
		return ErrNoLiveNodes
	}
	if tr := ln.tr; tr != nil && tr.Sampled(flowHash) {
		// The steering hop of a sampled flow's timeline: which node the
		// front end picked, before the gateway's own verdict event.
		tr.Record(trace.Event{TimeNs: now.UnixNano(), FlowHash: flowHash,
			VNI: vni, Dev: node.trDev, Stage: trace.StageFront, Verdict: trace.VerdictSteered})
	}
	if err := ln.processGW(node, raw, now, &out.GW); err != nil {
		out.GW = xgwh.ForwardResult{}
		return err
	}
	out.ClusterID, out.NodeID, out.EgressPort = clusterID, node.ID, port
	switch res := &out.GW; res.Action {
	case xgwh.ActionForward:
		ln.ctr.forwarded.Add(1)
		if sloCol != nil {
			sloCol.Forward(vni)
		}
	case xgwh.ActionDrop:
		ln.ctr.dropped.Add(1)
		if sloCol != nil {
			sloCol.Drop(vni)
		}
	case xgwh.ActionFallback:
		if res.FallbackMiss {
			// A genuine hardware table miss: the residency ladder's middle
			// rung gets the first shot at it. Deliberate service-VNI
			// steering bypasses the DPU — its SNAT state lives on x86.
			ln.ctr.fallbackMiss.Add(1)
			if sloCol != nil {
				sloCol.FallbackMiss(vni)
			}
			if dpu := r.DPU; dpu != nil {
				served, derr := ln.processDPU(int(flowHash%uint64(dpu.Devices())), now, &out.DPUOut)
				if derr != nil {
					ln.ctr.dropped.Add(1)
					ln.frontDrop(fDropDPUError, flowHash, vni, now)
					return nil
				}
				if served {
					ln.ctr.dpuServed.Add(1)
					if sloCol != nil {
						sloCol.DPUServed(vni)
					}
					out.ViaDPU = true
					return nil
				}
			}
			ln.ctr.fallbackMissX86.Add(1)
			if sloCol != nil {
				sloCol.FallbackMissX86(vni)
			}
		}
		if len(r.Fallback) > 0 {
			if ferr := ln.processFallback(int(flowHash%uint64(len(r.Fallback))), now, &out.FallbackOut); ferr != nil {
				ln.ctr.dropped.Add(1)
				ln.frontDrop(fDropFallbackError, flowHash, vni, now)
				return nil
			}
			out.ViaFallback = true
		}
		ln.ctr.fallback.Add(1)
		if sloCol != nil {
			sloCol.Fallback(vni)
		}
	}
	return nil
}

// ProcessBatch runs a batch of raw packets through the lane in arrival
// order, with the same steering/cluster-mode memoization as
// Region.ProcessBatch (which is this method on the region's built-in lane).
// Each packet takes the single pass of Process, its result written in
// place into the appended slot.
func (ln *Lane) ProcessBatch(raws [][]byte, now time.Time, out []BatchResult) []BatchResult {
	var steer steerMemo
	var cmemo clusterMemo
	for _, raw := range raws {
		out = append(out, BatchResult{})
		br := &out[len(out)-1]
		br.Err = ln.process(raw, now, &steer, &cmemo, &br.Result)
	}
	return out
}

// snapshot reads the counter block into a RegionStats.
func (c *regionCounters) snapshot() RegionStats {
	s := RegionStats{
		Forwarded:       c.forwarded.Load(),
		Fallback:        c.fallback.Load(),
		FallbackMiss:    c.fallbackMiss.Load(),
		DPUServed:       c.dpuServed.Load(),
		FallbackMissX86: c.fallbackMissX86.Load(),
		Dropped:         c.dropped.Load(),
		NoRoute:         c.noRoute.Load(),
		Degraded:        c.degraded.Load(),
		FrontDrops:      make(map[string]uint64, numFrontDropReasons-1),
	}
	for code := 1; code < int(numFrontDropReasons); code++ {
		s.FrontDrops[frontDropName[code]] = c.frontDrops[code].Load()
	}
	return s
}

// addInto accumulates this block's cells into dst — the merge step behind a
// sharded plane's scrape.
func (c *regionCounters) addInto(dst *RegionStats) {
	dst.Forwarded += c.forwarded.Load()
	dst.Fallback += c.fallback.Load()
	dst.FallbackMiss += c.fallbackMiss.Load()
	dst.DPUServed += c.dpuServed.Load()
	dst.FallbackMissX86 += c.fallbackMissX86.Load()
	dst.Dropped += c.dropped.Load()
	dst.NoRoute += c.noRoute.Load()
	dst.Degraded += c.degraded.Load()
	for code := 1; code < int(numFrontDropReasons); code++ {
		dst.FrontDrops[frontDropName[code]] += c.frontDrops[code].Load()
	}
}

// steerMemo caches one VNI's steering decision within a batch.
type steerMemo struct {
	ok      bool
	vni     netpkt.VNI
	cluster int
	group   *lb.ECMP
}
