package main

import (
	"strconv"
	"time"

	"sailfish/internal/netpkt"
	"sailfish/internal/placement"
	"sailfish/internal/slo"
)

// Per-tenant SLO evaluation on the one-box daemon: the collector mirrors the
// data plane's disposition of every datagram per VNI, the engine evaluates
// multi-window burn rates between datagrams (riding maybeCycle's cadence like
// the residency loop), and the ops journal merges the resulting alerts with
// placement transitions and SNAT promotions into one ordered stream behind
// /events.

// sloConfig is the optional "slo" stanza of the daemon config.
type sloConfig struct {
	// LossBudget is the per-tenant loss-ratio SLO; default 2e-4 (0.2‰).
	LossBudget float64 `json:"lossBudget"`
	// FastWindowMs / SlowWindowMs are the burn windows; defaults 1m / 1h.
	FastWindowMs int `json:"fastWindowMs"`
	SlowWindowMs int `json:"slowWindowMs"`
	// FastBurn / SlowBurn are the burn thresholds; defaults 14 / 2.
	FastBurn float64 `json:"fastBurn"`
	SlowBurn float64 `json:"slowBurn"`
	// History is the per-tenant sample-ring capacity; default 256.
	History int `json:"history"`
	// JournalDepth bounds the ops journal; default 4096.
	JournalDepth int `json:"journalDepth"`
	// TickMs is the evaluator cadence; default 1000.
	TickMs int `json:"tickMs"`
}

// enableSLO builds the collector/engine/journal trio, tracks every configured
// tenant, and wires the placement and SNAT event producers into the journal.
// Called after enablePlacement so the loop sink can attach.
func (s *server) enableSLO(sc sloConfig, fc fileConfig) {
	depth := sc.JournalDepth
	if depth <= 0 {
		depth = slo.DefaultJournalDepth
	}
	s.journal = slo.NewJournal(depth)
	s.sloCol = slo.NewCollector()
	for _, t := range fc.Tenants {
		s.sloCol.Track(netpkt.VNI(t.VNI))
	}
	for _, t := range fc.SoftwareTenants {
		s.sloCol.Track(netpkt.VNI(t.VNI))
	}
	s.sloEng = slo.NewEngine(slo.Config{
		LossBudget: sc.LossBudget,
		FastWindow: time.Duration(sc.FastWindowMs) * time.Millisecond,
		SlowWindow: time.Duration(sc.SlowWindowMs) * time.Millisecond,
		FastBurn:   sc.FastBurn,
		SlowBurn:   sc.SlowBurn,
		History:    sc.History,
	}, s.sloCol, s.journal)
	s.sloEvery = time.Duration(sc.TickMs) * time.Millisecond
	if s.sloEvery <= 0 {
		s.sloEvery = time.Second
	}

	// Residency transitions: invoked mid-cycle with the loop lock held, so
	// the adapter only appends to the journal (lock-cheap, no re-entry).
	if s.loop != nil {
		j := s.journal
		s.loop.SetEventSink(func(ev placement.Event) {
			j.Append(slo.Entry{
				TimeNs:  ev.At.UnixNano(),
				Source:  "placement",
				Kind:    ev.Kind,
				VNI:     ev.VNI,
				Cluster: ev.Cluster,
				Detail:  ev.DIP.String() + " share " + strconv.FormatFloat(ev.Share, 'f', -1, 64),
			})
		})
	}
	// SNAT promotions: failover/failback session outcomes.
	j := s.journal
	s.x86.SNATService().SetPromotionSink(func(kind string, preserved, orphaned uint64) {
		j.Append(slo.Entry{
			TimeNs:  time.Now().UnixNano(),
			Source:  "snat",
			Kind:    kind,
			Cluster: -1,
			Detail: "sessions preserved " + strconv.FormatUint(preserved, 10) +
				", orphaned " + strconv.FormatUint(orphaned, 10),
		})
	})
}

// sloOutcome books one datagram's disposition into the collector, mirroring
// the region-lane taxonomy: forward, DPU-served, x86 fallback, or drop, with
// a hardware miss booked as FallbackMiss and then DPUServed or
// FallbackMissX86. vni is 0 when the front parse failed — the collector
// routes that to its untracked cell.
func (s *server) sloForward(vni netpkt.VNI) {
	if s.sloCol != nil {
		s.sloCol.Forward(vni)
	}
}

func (s *server) sloDrop(vni netpkt.VNI) {
	if s.sloCol != nil {
		s.sloCol.Drop(vni)
	}
}

func (s *server) sloFallbackMiss(vni netpkt.VNI) {
	if s.sloCol != nil {
		s.sloCol.FallbackMiss(vni)
	}
}

func (s *server) sloDPUServed(vni netpkt.VNI) {
	if s.sloCol != nil {
		s.sloCol.DPUServed(vni)
	}
}

func (s *server) sloFallbackMissX86(vni netpkt.VNI) {
	if s.sloCol != nil {
		s.sloCol.FallbackMissX86(vni)
	}
}

func (s *server) sloFallback(vni netpkt.VNI) {
	if s.sloCol != nil {
		s.sloCol.Fallback(vni)
	}
}
