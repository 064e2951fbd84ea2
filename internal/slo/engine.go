package slo

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
)

// Window selects which burn-rate window an alert evaluates.
type Window uint8

const (
	// WindowFast is the short window (~1 min): catches an acute burn —
	// a crashed cluster eating a tenant's budget right now.
	WindowFast Window = iota
	// WindowSlow is the long window (~1 h): catches a slow leak that never
	// trips the fast threshold but still exhausts the budget.
	WindowSlow
	numWindows
)

// String names the window as the admin plane and metrics label it.
func (w Window) String() string {
	if w == WindowFast {
		return "fast"
	}
	return "slow"
}

// Alert is one firing burn-rate condition.
type Alert struct {
	VNI       netpkt.VNI
	Window    Window
	Burn      float64 // observed burn rate (loss ratio / budget)
	LossRatio float64
	Threshold float64 // burn threshold that fired
	SinceNs   int64   // when the alert transitioned to firing
}

// Config shapes the evaluator. Zero values select the paper-aligned
// defaults noted per field.
type Config struct {
	// LossBudget is the loss-ratio SLO (default 2e-4 — the paper's 0.2‰).
	LossBudget float64
	// FastWindow/SlowWindow are the two burn windows (default 1m / 1h).
	FastWindow time.Duration
	SlowWindow time.Duration
	// FastBurn/SlowBurn are the burn-rate thresholds (default 14 / 2 —
	// the classic SRE pairing: a fast window needs a violent burn to page,
	// the slow window pages on anything that would exhaust the budget).
	FastBurn float64
	SlowBurn float64
	// History is the per-VNI sample-ring capacity (default 256). With a
	// 1 s tick the fast window needs ~60 samples; the slow window degrades
	// gracefully to "oldest retained sample" when the ring is shorter than
	// the window — the burn estimate stays conservative, never stale.
	History int
}

func (c Config) withDefaults() Config {
	if c.LossBudget <= 0 {
		c.LossBudget = 2e-4
	}
	if c.FastWindow <= 0 {
		c.FastWindow = time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Hour
	}
	if c.FastBurn <= 0 {
		c.FastBurn = 14
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = 2
	}
	if c.History <= 0 {
		c.History = 256
	}
	return c
}

// sample is one tick's cumulative snapshot.
type sample struct {
	timeNs int64
	cum    Counters
}

// tenantSeries is one VNI's fixed-capacity time-series ring plus its alert
// state machine.
type tenantSeries struct {
	ring []sample // capacity cfg.History, ring[head] is next write slot
	head int
	n    int
	// pushes counts lifetime samples; firstNs stamps the first one. Until
	// pushes outgrows the ring (no eviction yet) the series knows its true
	// origin, so windows reaching before the first sample use the zero
	// snapshot — cumulative counters start at zero in-process.
	pushes  uint64
	firstNs int64

	active  [numWindows]bool
	sinceNs [numWindows]int64
	burn    [numWindows]float64
	loss    [numWindows]float64

	// stackCoverage/dpuMissShare/x86MissShare are fast-window SLIs refreshed
	// each tick for the metrics and admin surfaces.
	stackCoverage float64
	dpuMissShare  float64
	x86MissShare  float64
}

func (s *tenantSeries) push(p sample) {
	if s.pushes == 0 {
		s.firstNs = p.timeNs
	}
	s.pushes++
	s.ring[s.head] = p
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
}

// latest returns the newest sample; ok is false when empty.
func (s *tenantSeries) latest() (sample, bool) {
	if s.n == 0 {
		return sample{}, false
	}
	return s.ring[(s.head-1+len(s.ring))%len(s.ring)], true
}

// baseline returns the subtraction point for a window delta: the newest
// retained sample at or before cutoffNs. When the whole ring is newer than
// the cutoff, the fallback depends on whether the ring has evicted: before
// eviction the true origin is known — the zero snapshot (counters start at
// zero) — after eviction the oldest retained sample is the closest honest
// baseline, making the burn estimate conservative rather than stale.
func (s *tenantSeries) baseline(cutoffNs int64) (sample, bool) {
	if s.n == 0 {
		return sample{}, false
	}
	oldest := (s.head - s.n + len(s.ring)) % len(s.ring)
	if s.ring[oldest].timeNs > cutoffNs && s.pushes == uint64(s.n) {
		return sample{}, true
	}
	best := s.ring[oldest]
	for i := 1; i < s.n; i++ {
		p := s.ring[(oldest+i)%len(s.ring)]
		if p.timeNs > cutoffNs {
			break
		}
		best = p
	}
	return best, true
}

// Engine evaluates per-tenant SLIs from Collector snapshots on its own
// cadence — call Tick from a control-loop goroutine (the daemon rides the
// placement cycle's timer); packets never enter this file.
type Engine struct {
	cfg Config
	col *Collector

	// stages, when attached, contributes global latency quantiles to the
	// status snapshot (stage histograms are not per-tenant).
	stages *metrics.StageHistograms

	journal *Journal

	mu      sync.Mutex
	tenants map[netpkt.VNI]*tenantSeries

	ticks   uint64
	fired   uint64
	cleared uint64
}

// NewEngine builds an evaluator over col, journaling alert transitions into
// j (nil is allowed: alerts still evaluate, nothing is journaled).
func NewEngine(cfg Config, col *Collector, j *Journal) *Engine {
	return &Engine{
		cfg:     cfg.withDefaults(),
		col:     col,
		journal: j,
		tenants: make(map[netpkt.VNI]*tenantSeries),
	}
}

// AttachStageHistograms contributes h's latency quantiles to Status.
func (e *Engine) AttachStageHistograms(h *metrics.StageHistograms) { e.stages = h }

// Journal returns the attached ops journal (nil when none).
func (e *Engine) Journal() *Journal { return e.journal }

// Config returns the resolved (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Tick snapshots every tracked tenant, appends to its ring, and runs the
// burn-rate state machines. now is the caller's clock so simulations
// evaluate in virtual time.
func (e *Engine) Tick(now time.Time) {
	nowNs := now.UnixNano()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ticks++
	for _, vni := range e.col.Tracked() {
		cum, ok := e.col.Snapshot(vni)
		if !ok {
			continue
		}
		s := e.tenants[vni]
		if s == nil {
			s = &tenantSeries{ring: make([]sample, e.cfg.History)}
			e.tenants[vni] = s
		}
		s.push(sample{timeNs: nowNs, cum: cum})
		e.evaluateLocked(vni, s, nowNs)
	}
}

// evaluateLocked runs both window state machines for one tenant.
func (e *Engine) evaluateLocked(vni netpkt.VNI, s *tenantSeries, nowNs int64) {
	newest, ok := s.latest()
	if !ok {
		return
	}
	for _, w := range []struct {
		win       Window
		span      time.Duration
		threshold float64
	}{
		{WindowFast, e.cfg.FastWindow, e.cfg.FastBurn},
		{WindowSlow, e.cfg.SlowWindow, e.cfg.SlowBurn},
	} {
		base, _ := s.baseline(nowNs - w.span.Nanoseconds())
		d := newest.cum.Sub(base.cum)
		loss, burn := 0.0, 0.0
		if att := d.Attempted(); att > 0 {
			loss = float64(d.Dropped) / float64(att)
			burn = loss / e.cfg.LossBudget
		}
		s.loss[w.win], s.burn[w.win] = loss, burn
		if w.win == WindowFast {
			s.stackCoverage, s.dpuMissShare, s.x86MissShare = deriveShares(d)
		}
		// A window arms only once its span has elapsed since the tenant's
		// first sample: burn over a half-filled window is visible in the
		// gauges but doesn't page — a startup blip inflated by a short
		// denominator is not an hour of budget burn.
		armed := nowNs-s.firstNs >= w.span.Nanoseconds()
		switch {
		case armed && burn >= w.threshold && !s.active[w.win]:
			s.active[w.win] = true
			s.sinceNs[w.win] = nowNs
			e.fired++
			e.journalAlert(vni, w.win, "alert_fire", burn, loss, w.threshold, nowNs)
		case burn < w.threshold && s.active[w.win]:
			s.active[w.win] = false
			e.cleared++
			e.journalAlert(vni, w.win, "alert_clear", burn, loss, w.threshold, nowNs)
		}
	}
}

func (e *Engine) journalAlert(vni netpkt.VNI, w Window, kind string, burn, loss, threshold float64, nowNs int64) {
	if e.journal == nil {
		return
	}
	e.journal.Append(Entry{
		TimeNs:  nowNs,
		Source:  "slo",
		Kind:    kind,
		VNI:     vni,
		Cluster: -1,
		Detail: fmt.Sprintf("%s-burn %.2f (threshold %.2f, loss %.6f, budget %.6f)",
			w, burn, threshold, loss, e.cfg.LossBudget),
	})
}

// deriveShares computes the fast-window coverage SLIs from a delta.
func deriveShares(d Counters) (stackCoverage, dpuMissShare, x86MissShare float64) {
	stackCoverage = 1 // no route-resolved traffic in the window: trivially green
	if routed := d.Forwarded + d.FallbackMiss; routed > 0 {
		stackCoverage = float64(d.Forwarded+d.DPUServed) / float64(routed)
	}
	if d.FallbackMiss > 0 {
		dpuMissShare = float64(d.DPUServed) / float64(d.FallbackMiss)
		x86MissShare = float64(d.FallbackMissX86) / float64(d.FallbackMiss)
	}
	return
}

// TenantStatus is one VNI's evaluated SLI state.
type TenantStatus struct {
	VNI   netpkt.VNI
	Total Counters

	FastLossRatio float64
	FastBurn      float64
	SlowLossRatio float64
	SlowBurn      float64

	StackCoverage float64
	DPUMissShare  float64
	X86MissShare  float64

	Alerts []Alert // firing alerts, fast before slow
}

// Status is the engine-wide snapshot behind /slo.
type Status struct {
	TimeNs            int64
	LossBudget        float64
	FastWindowNs      int64
	SlowWindowNs      int64
	FastBurnThreshold float64
	SlowBurnThreshold float64
	Ticks             uint64

	// LatencyP50Ns/LatencyP99Ns come from the attached stage histograms
	// (pipeline stage, gateway-global — stage clocks are not per-tenant).
	// NaN when no histogram is attached or it is empty.
	LatencyP50Ns float64
	LatencyP99Ns float64

	Tenants []TenantStatus // ascending VNI
}

// Snapshot evaluates nothing — it reports the state the last Tick computed,
// so scrapes stay cheap and consistent.
func (e *Engine) Snapshot() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		LossBudget:        e.cfg.LossBudget,
		FastWindowNs:      e.cfg.FastWindow.Nanoseconds(),
		SlowWindowNs:      e.cfg.SlowWindow.Nanoseconds(),
		FastBurnThreshold: e.cfg.FastBurn,
		SlowBurnThreshold: e.cfg.SlowBurn,
		Ticks:             e.ticks,
		LatencyP50Ns:      math.NaN(),
		LatencyP99Ns:      math.NaN(),
	}
	if e.stages != nil {
		st.LatencyP50Ns = e.stages.Pipeline.Quantile(0.50)
		st.LatencyP99Ns = e.stages.Pipeline.Quantile(0.99)
	}
	for _, vni := range e.col.Tracked() {
		ts := TenantStatus{VNI: vni, StackCoverage: 1}
		if cum, ok := e.col.Snapshot(vni); ok {
			ts.Total = cum
		}
		if s := e.tenants[vni]; s != nil {
			st.TimeNs = maxInt64(st.TimeNs, latestNs(s))
			ts.FastLossRatio, ts.FastBurn = s.loss[WindowFast], s.burn[WindowFast]
			ts.SlowLossRatio, ts.SlowBurn = s.loss[WindowSlow], s.burn[WindowSlow]
			ts.StackCoverage = s.stackCoverage
			ts.DPUMissShare, ts.X86MissShare = s.dpuMissShare, s.x86MissShare
			for _, w := range []Window{WindowFast, WindowSlow} {
				if s.active[w] {
					ts.Alerts = append(ts.Alerts, Alert{
						VNI: vni, Window: w,
						Burn: s.burn[w], LossRatio: s.loss[w],
						Threshold: e.threshold(w), SinceNs: s.sinceNs[w],
					})
				}
			}
		}
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}

func (e *Engine) threshold(w Window) float64 {
	if w == WindowFast {
		return e.cfg.FastBurn
	}
	return e.cfg.SlowBurn
}

func latestNs(s *tenantSeries) int64 {
	if p, ok := s.latest(); ok {
		return p.timeNs
	}
	return 0
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ActiveAlerts returns every firing alert, ascending VNI, fast before slow.
func (e *Engine) ActiveAlerts() []Alert {
	var out []Alert
	for _, ts := range e.Snapshot().Tenants {
		out = append(out, ts.Alerts...)
	}
	return out
}

// HistoryPoint is one derived SLI observation: the deltas between two
// consecutive ring samples — per-tick loss and coverage, the recent history
// /slo/{vni} renders.
type HistoryPoint struct {
	TimeNs        int64
	LossRatio     float64
	StackCoverage float64
	Attempted     uint64
	Dropped       uint64
}

// History returns vni's retained per-tick SLI series, oldest first.
func (e *Engine) History(vni netpkt.VNI) []HistoryPoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.tenants[vni]
	if s == nil || s.n < 2 {
		return nil
	}
	oldest := (s.head - s.n + len(s.ring)) % len(s.ring)
	out := make([]HistoryPoint, 0, s.n-1)
	prev := s.ring[oldest]
	for i := 1; i < s.n; i++ {
		p := s.ring[(oldest+i)%len(s.ring)]
		d := p.cum.Sub(prev.cum)
		hp := HistoryPoint{TimeNs: p.timeNs, Attempted: d.Attempted(), Dropped: d.Dropped}
		if hp.Attempted > 0 {
			hp.LossRatio = float64(d.Dropped) / float64(hp.Attempted)
		}
		hp.StackCoverage, _, _ = deriveShares(d)
		out = append(out, hp)
		prev = p
	}
	return out
}

// RegisterMetrics exports the sailfish_slo_* family: engine counters plus
// per-tenant burn/loss/coverage gauges for every VNI tracked at call time
// (the daemon registers after installing tenants, like the other families).
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("sailfish_slo_ticks_total", "SLO evaluator ticks", nil,
		func() uint64 { e.mu.Lock(); defer e.mu.Unlock(); return e.ticks })
	reg.CounterFunc("sailfish_slo_alerts_fired_total", "burn-rate alerts fired", nil,
		func() uint64 { e.mu.Lock(); defer e.mu.Unlock(); return e.fired })
	reg.CounterFunc("sailfish_slo_alerts_cleared_total", "burn-rate alerts cleared", nil,
		func() uint64 { e.mu.Lock(); defer e.mu.Unlock(); return e.cleared })
	reg.GaugeFunc("sailfish_slo_alerts_active", "currently firing burn-rate alerts", nil,
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			var n int
			for _, s := range e.tenants {
				for _, a := range s.active {
					if a {
						n++
					}
				}
			}
			return float64(n)
		})
	if e.journal != nil {
		e.journal.RegisterMetrics(reg)
	}
	for _, vni := range e.col.Tracked() {
		vni := vni
		vl := strconv.FormatUint(uint64(vni), 10)
		for _, w := range []Window{WindowFast, WindowSlow} {
			w := w
			lbl := metrics.Labels{"vni": vl, "window": w.String()}
			reg.GaugeFunc("sailfish_slo_burn_rate",
				"per-tenant loss-budget burn rate per window", lbl,
				func() float64 { return e.gauge(vni, func(s *tenantSeries) float64 { return s.burn[w] }) })
			reg.GaugeFunc("sailfish_slo_loss_ratio",
				"per-tenant windowed loss ratio", lbl,
				func() float64 { return e.gauge(vni, func(s *tenantSeries) float64 { return s.loss[w] }) })
			reg.GaugeFunc("sailfish_slo_alert_active",
				"1 while the tenant's burn-rate alert fires", lbl,
				func() float64 {
					return e.gauge(vni, func(s *tenantSeries) float64 {
						if s.active[w] {
							return 1
						}
						return 0
					})
				})
		}
		reg.GaugeFunc("sailfish_slo_stack_coverage",
			"per-tenant fast-window share served by XGW-H plus the DPU tier",
			metrics.Labels{"vni": vl},
			func() float64 {
				return e.gauge(vni, func(s *tenantSeries) float64 { return s.stackCoverage })
			})
	}
}

// gauge reads one derived value under the lock; tenants with no samples yet
// report 0 (and stack coverage's zero state is handled by its first tick).
func (e *Engine) gauge(vni netpkt.VNI, f func(*tenantSeries) float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.tenants[vni]; s != nil {
		return f(s)
	}
	return 0
}
