// Command perfbench is the repository's benchmark. It drives three seeded
// workloads through public entry points and prints end-to-end metrics
// (untraced runs) or per-layer metrics (traced runs):
//
//	tenant-mix    cluster.Region.ProcessPacket, hardware-placed tenants
//	ladder-churn  the same population software-placed, with the
//	              placement loop moving entries between XGW-H, DPU and x86
//	wire-udp      the sailfish-gw daemon over loopback UDP
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload tenant-mix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed output check prints
// correct=false and exits non-zero. --workload all runs the three in turn
// and ends with one verdict whose metric names carry the workload prefix.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sailfish/internal/cluster"
	"sailfish/internal/placement"
)

// metric is one named, united value in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // small population and short phases, set by the tests
	gwBin    string // sailfish-gw binary (wire-udp)
	outDir   string // spans and result files
}

// report collects one run's output: metrics, the human-readable notes
// printed above the verdict, and the output checks.
type report struct {
	res    result
	fp     Fingerprint
	notes  []string
	errors []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: make(map[string]metric)}, fp: fingerprint()}
}

func (r *report) set(name string, v float64, unit string) { r.res.Metrics[name] = metric{v, unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
	r.res.Correct = false
}

// allWorkloads is every workload the benchmark can run, in the order
// --workload all runs them. BENCHMARK.json lists the ones the repository
// gates on.
var allWorkloads = []string{"tenant-mix", "ladder-churn", "wire-udp"}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "tenant-mix, ladder-churn, wire-udp, or all three in turn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced (per-layer) variant")
	flag.StringVar(&o.gwBin, "gw", "", "path to the sailfish-gw binary (wire-udp)")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and result files")
	flag.Parse()
	o.trace = traceFlag == 1
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	workloads := []string{o.workload}
	if o.workload == "all" {
		workloads = allWorkloads
	}
	all := result{Correct: true, Metrics: make(map[string]metric)}
	for _, wl := range workloads {
		o.workload = wl
		rep, err := run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl, err)
			os.Exit(1)
		}
		if len(workloads) > 1 {
			fmt.Printf("== %s\n", wl)
		}
		rep.print(os.Stdout)
		rep.save(o)
		all.Correct = all.Correct && rep.res.Correct
		all.Attempted += rep.res.Attempted
		all.Failed += rep.res.Failed
		for k, m := range rep.res.Metrics {
			all.Metrics[wl+"."+k] = m
		}
	}
	if len(workloads) > 1 {
		// One verdict over every workload, metrics prefixed by workload.
		line, _ := json.Marshal(all)
		fmt.Printf("%s\n", line)
	}
	if !all.Correct {
		os.Exit(1)
	}
}

// run executes one workload run.
func run(o options) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport()
	cpu0 := readCPUTimes()
	var err error
	switch o.workload {
	case "tenant-mix", "ladder-churn":
		ladder := o.workload == "ladder-churn"
		if o.trace {
			err = tracedInProc(o, ladder, rep)
		} else {
			err = untracedInProc(o, ladder, rep)
		}
	case "wire-udp":
		if o.gwBin == "" {
			return nil, errors.New("wire-udp needs -gw, the sailfish-gw binary")
		}
		if o.trace {
			err = tracedWire(o, rep)
		} else {
			err = untracedWire(o, rep)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	rep.fp.StealShare = stealShare(cpu0, readCPUTimes())
	return rep, nil
}

// Phase sizing.
type phases struct {
	period       int // packets per period (and placement cycle)
	warmPeriods  int // periods run before measuring
	sharePeriods int // leading measured periods hw_share is taken over
	minSetups    int // deployments built for setup_s, at least
}

// setup_s is the median of repeated deployments: at least minSetups, and
// more while setupBudget lasts, up to maxSetups.
const (
	setupBudget = 1500 * time.Millisecond
	maxSetups   = 25
)

func phasesFor(o options, ladder bool) phases {
	// tenant-mix samples its rate over short periods; ladder-churn's
	// period is the placement cadence, so each sample holds one cycle.
	p := phases{period: 1 << 14, warmPeriods: 8, sharePeriods: 32, minSetups: 5}
	if ladder {
		p = phases{period: 1 << 16, warmPeriods: 10, sharePeriods: 8, minSetups: 5}
	}
	if o.tiny {
		p = phases{period: 1 << 11, warmPeriods: 2, sharePeriods: 2, minSetups: 2}
	}
	return p
}

func streamFor(o options, snat bool) StreamConfig {
	if o.tiny {
		return tinyStream(snat)
	}
	return fullStream(snat)
}

// warm drives the world's warm-up periods and fails the report on any
// mismatch.
func warm(w *world, periods int, rep *report) error {
	for i := 0; i < periods; i++ {
		pr := w.runPeriod(nil)
		if pr.err != nil {
			return pr.err
		}
		if pr.fails > 0 {
			rep.fail("warm-up period %d: %d packets with the wrong verdict", i, pr.fails)
		}
	}
	return nil
}

// untracedInProc measures the end-to-end metrics of an in-process
// workload.
func untracedInProc(o options, ladder bool, rep *report) error {
	ph := phasesFor(o, ladder)
	st, err := GenerateStream(streamFor(o, ladder), o.seed)
	if err != nil {
		return err
	}
	// The stream is the harness's, not the deployment's: mem_mib is the
	// heap that set-up adds on top of it.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var w *world
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < ph.minSetups || (i < maxSetups && time.Since(setupStart) < setupBudget); i++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		if w, err = buildWorld(ladder, st, ph.period); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rep.set("setup_s", median(setups), "s")
	rep.set("mem_mib", float64(int64(ms.HeapAlloc)-int64(base))/(1<<20), "MiB")
	rep.notef("setup: %d deployments, %s s each", len(setups), fmtList(setups, "%.3f"))

	if err := warm(w, ph.warmPeriods, rep); err != nil {
		return err
	}
	w.region.ResetStats()
	var rates, cycles, lat []float64
	var latCuts []int
	var steal []uint64
	ct := readCPUTimes()
	var failed, sent uint64
	var moves int
	var shareStats cluster.RegionStats
	start := time.Now()
	for p := 0; ; p++ {
		pr := w.runPeriod(&lat)
		now := readCPUTimes()
		steal = append(steal, now.steal-ct.steal)
		ct = now
		latCuts = append(latCuts, len(lat))
		rates = append(rates, float64(w.period)/pr.dur.Seconds())
		sent += uint64(w.period)
		failed += uint64(pr.fails)
		if w.loop != nil {
			cycles = append(cycles, pr.cycle.Seconds()*1e3)
			moves += cycleMoves(pr.rep)
		}
		if pr.err != nil {
			return pr.err
		}
		if p+1 == ph.sharePeriods {
			shareStats = w.region.Stats()
		}
		if p+1 >= ph.sharePeriods && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	stats := w.region.Stats()
	if err := ledgerCheck(stats, sent); err != nil {
		rep.fail("%v", err)
	}
	shareSent := float64(ph.sharePeriods * w.period)
	keep := calm(steal)
	rep.set("pps", median(kept(rates, keep)), "1/s")
	rep.set("lat_p50_us", medianOfSlices(lat, latCuts, 50, keep), "us")
	rep.set("lat_p99_us", medianOfSlices(lat, latCuts, 99, keep), "us")
	rep.set("hw_share", float64(shareStats.Forwarded)/shareSent, "ratio")
	rep.set("stack_coverage", float64(shareStats.Forwarded+shareStats.DPUServed)/shareSent, "ratio")
	rep.res.Attempted, rep.res.Failed = sent, failed
	if failed > 0 {
		rep.fail("%d of %d packets got the wrong verdict", failed, sent)
	}
	rep.notef("closed loop, serial lane: %d periods of %d packets; pps is the median rate over the %d calm periods (least stolen CPU); all periods: median %.0f, q1 %.0f, q3 %.0f",
		len(rates), w.period, len(kept(rates, keep)), median(rates), percentile(rates, 25), percentile(rates, 75))
	rep.notef("latency: service time of every 8th packet, %d samples; p50/p99 taken per calm period, median over them (whole-run p99 %.2f us)",
		len(lat), percentile(lat, 99))
	rep.notef("hw_share/stack_coverage over the first %d measured packets", int(shareSent))
	rep.notef("tiers over the run: xgwh %.4f  dpu %.4f  x86 %.4f  (sent %d)",
		float64(stats.Forwarded)/float64(sent), float64(stats.DPUServed)/float64(sent),
		float64(stats.Fallback)/float64(sent), sent)
	if w.loop != nil {
		rep.notef("placement: %d cycles, p50 %.2f ms, p99 %.2f ms, %.1f moves/cycle",
			len(cycles), percentile(cycles, 50), percentile(cycles, 99), float64(moves)/float64(len(cycles)))
	}
	return nil
}

// tracedInProc runs the reference pass untraced and replays the same packets through the traced lane on an identical world.
// Placement cycles run on the reference world only, one span each; the
// replayed world applies the reference's recorded moves at the same packet
// indices, so the two must end with identical counters.
func tracedInProc(o options, ladder bool, rep *report) error {
	ph := phasesFor(o, ladder)
	st, err := GenerateStream(streamFor(o, ladder), o.seed)
	if err != nil {
		return err
	}
	a, err := buildWorld(ladder, st, ph.period)
	if err != nil {
		return err
	}
	b, err := buildWorld(ladder, st, ph.period)
	if err != nil {
		return err
	}
	if ladder {
		a.recordMoves()
		b.followMoves(a)
	}
	if err := warm(a, ph.warmPeriods, rep); err != nil {
		return err
	}
	if err := warm(b, ph.warmPeriods, rep); err != nil {
		return err
	}
	a.region.ResetStats()
	b.region.ResetStats()
	runtime.GC()

	// Reference pass: Region.ProcessPacket, untraced.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var failed uint64
	var cycles []float64 // ms
	var cycleTotal time.Duration
	var moves, placeFailed int
	periods := 0
	start := time.Now()
	for periods == 0 || time.Since(start).Seconds() < o.seconds*0.45 {
		pr := a.runPeriod(nil)
		failed += uint64(pr.fails)
		if a.loop != nil {
			cycles = append(cycles, pr.cycle.Seconds()*1e3)
			cycleTotal += pr.cycle
			moves += cycleMoves(pr.rep)
			placeFailed += pr.rep.Failed
		}
		periods++
	}
	elapsedA := time.Since(start)
	runtime.ReadMemStats(&ms1)
	n := periods * ph.period
	if err := ledgerCheck(a.region.Stats(), uint64(n)); err != nil {
		rep.fail("untraced pass: %v", err)
	}

	// Traced pass: the same n packets through the layers' entry points.
	tr := newTracer()
	rp := newReplayer(b, tr)
	runtime.GC()
	startB := time.Now()
	fails, moveTime, err := rp.replay(n)
	if err != nil {
		return err
	}
	elapsedB := time.Since(startB) - moveTime
	failed += uint64(fails)
	if err := compareWorlds(a, b, rp.led); err != nil {
		rep.fail("%v", err)
	}
	rep.res.Attempted, rep.res.Failed = uint64(2*n), failed
	if failed > 0 {
		rep.fail("%d of %d packets got the wrong verdict", failed, 2*n)
	}
	// The placement layer's time is the reference world's real cycles.
	tr.self[layerPlacement] = int64(cycleTotal)

	ppsA := float64(n) / elapsedA.Seconds()
	ppsB := float64(n) / (elapsedB + cycleTotal).Seconds()
	nsPerPkt := 1e9 / ppsA
	perPkt := func(l int) float64 { return float64(tr.self[l]) / float64(n) }
	var sum float64
	layerNs := map[string]float64{}
	for l := 0; l < numLayers; l++ {
		sum += perPkt(l)
		layerNs[layerNames[l]] = perPkt(l)
	}

	// The gw.* metrics describe the sailfish-gw daemon, which does not run
	// in process: they read 0 here, like the other absent layers.
	for _, name := range []string{"gw.syscall_share", "gw.heavyhitter_share", "gw.xgwh_share",
		"gw.netpkt_share", "gw.runtime_share"} {
		rep.set(name, 0, "ratio")
	}
	rep.set("gw.cpu_us_per_pkt", 0, "us")
	rep.set("gw.kernel_drops", 0, "count")
	rep.set("netpkt.front_ns", perPkt(layerNetpkt), "ns")
	rep.set("lb.route_ns", perPkt(layerLB), "ns")
	rep.set("cluster.self_ns", perPkt(layerCluster), "ns")
	rep.set("xgwh.ns", perPkt(layerXGWH), "ns")
	rep.set("xgwh.passes_per_pkt", ratio(rp.led.passes, rp.led.gwCalls), "count")
	rep.set("heavyhitter.observe_ns", perPkt(layerHeavyHitter), "ns")
	rep.set("runtime.allocs_per_pkt", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "count")
	rep.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	rep.set("xgwdpu.ns", perPkt(layerDPU), "ns")
	rep.set("xgwdpu.hit_ratio", ratio(rp.led.dpuServed, rp.led.dpuCalls), "ratio")
	rep.set("xgw86.ns", perPkt(layerX86), "ns")
	rep.set("xgw86.share", ratio(rp.led.fallback, uint64(n)), "ratio")
	rep.set("snat.sessions", float64(b.region.Fallback[0].Stats().SessionsAlive), "count")
	rep.set("placement.cycle_ms_p50", orZero(percentile(cycles, 50)), "ms")
	rep.set("placement.cycle_ms_p99", orZero(percentile(cycles, 99)), "ms")
	rep.set("placement.moves_per_cycle", ratio(uint64(moves), uint64(len(cycles))), "count")
	rep.set("placement.failed", float64(placeFailed), "count")
	rep.set("trace.overhead_ratio", ppsB/ppsA, "ratio")
	rep.set("trace.unaccounted_ns", math.Abs(nsPerPkt-sum), "ns")

	rep.notef("reference pass: %d packets untraced in %.2f s (%.0f pps), %d placement cycles",
		n, elapsedA.Seconds(), ppsA, len(cycles))
	rep.notef("traced pass: the same %d packets replayed through the lane's entry points in %.2f s (%.0f pps, plus the reference cycles); clock read %d ns subtracted per interval",
		n, elapsedB.Seconds(), ppsB, tr.clock)
	rep.budget(layerNs, nsPerPkt, ppsB/ppsA)
	return writeSpans(o, tr.spans)
}

// cycleMoves is one placement cycle's table moves on both rungs
// (cascades and upgrades are already inside demotions and promotions).
func cycleMoves(rep placement.CycleReport) int {
	return rep.Promoted + rep.Demoted + rep.PromotedDPU + rep.DemotedDPU
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// orZero is x, or 0 for a percentile over no samples (no placement loop).
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// setShares publishes the gw.* profile shares.
func setShares(rep *report, shares map[string]float64) {
	rep.set("gw.syscall_share", shares[classSyscall], "ratio")
	rep.set("gw.heavyhitter_share", shares[classHeavyHitter], "ratio")
	rep.set("gw.xgwh_share", shares[classXGWH], "ratio")
	rep.set("gw.netpkt_share", shares[classNetpkt], "ratio")
	rep.set("gw.runtime_share", shares[classRuntime], "ratio")
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s %.3f", k, shares[k]))
	}
	rep.notef("CPU profile shares: %s", strings.Join(parts, "  "))
}

// shouldMove names, for each per-layer metric, the end-to-end metric a
// change to that layer should move and the workload it shows on. A change
// to xgwh lookups is predicted to leave wire-udp unchanged; a change to
// the DPU or x86 tiers, tenant-mix and wire-udp.
var shouldMove = map[string]string{
	"netpkt.front_ns":           "-> pps on tenant-mix and ladder-churn",
	"lb.route_ns":               "-> pps on tenant-mix and ladder-churn",
	"cluster.self_ns":           "-> pps on tenant-mix and ladder-churn",
	"xgwh.ns":                   "-> pps on tenant-mix and ladder-churn",
	"xgwh.passes_per_pkt":       "-> pps on tenant-mix and ladder-churn",
	"heavyhitter.observe_ns":    "-> pps on all workloads",
	"runtime.allocs_per_pkt":    "-> pps on all workloads",
	"runtime.gc_cycles":         "-> pps on all workloads",
	"xgwdpu.ns":                 "-> pps on ladder-churn",
	"xgwdpu.hit_ratio":          "-> stack_coverage on ladder-churn",
	"xgw86.ns":                  "-> pps on ladder-churn",
	"xgw86.share":               "-> pps on ladder-churn",
	"snat.sessions":             "-> pps on ladder-churn",
	"placement.cycle_ms_p50":    "-> pps on ladder-churn",
	"placement.cycle_ms_p99":    "-> pps on ladder-churn",
	"placement.moves_per_cycle": "-> hw_share on ladder-churn",
	"placement.failed":          "-> hw_share on ladder-churn",
	"gw.cpu_us_per_pkt":         "-> pps, lat_* on wire-udp",
	"gw.kernel_drops":           "-> pps, lat_* on wire-udp",
	"gw.syscall_share":          "-> pps, lat_* on wire-udp",
	"gw.heavyhitter_share":      "-> pps, lat_* on wire-udp",
	"gw.xgwh_share":             "-> pps, lat_* on wire-udp",
	"gw.netpkt_share":           "-> pps, lat_* on wire-udp",
	"gw.runtime_share":          "-> pps, lat_* on wire-udp",
	"trace.overhead_ratio":      "(checks the traced run)",
	"trace.unaccounted_ns":      "(checks the traced run)",
}

// budget prints the traced layers' self times against the untraced time
// per packet.
func (r *report) budget(layerNs map[string]float64, untracedNs, overhead float64) {
	r.notef("budget (ns/pkt, traced self time vs untraced):")
	var sum float64
	for _, name := range layerNames {
		v := layerNs[name]
		sum += v
		r.notef("  %-12s %10.1f  %5.1f%%", name, v, 100*v/untracedNs)
	}
	r.notef("  %-12s %10.1f  %5.1f%%", "sum", sum, 100*sum/untracedNs)
	r.notef("  %-12s %10.1f", "untraced", untracedNs)
	r.notef("  %-12s %10.1f  %5.1f%%", "unaccounted", untracedNs-sum, 100*(untracedNs-sum)/untracedNs)
	r.notef("  tracing overhead: traced/untraced pps = %.3f", overhead)
}

// print writes the notes, every metric by name with its unit, and the
// verdict line last.
func (r *report) print(w *os.File) {
	fp, _ := json.Marshal(r.fp)
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for k := range r.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.res.Metrics[k]
		fmt.Fprintf(w, "%-28s %14.4f %-6s %s\n", k, m.Value, m.Unit, shouldMove[k])
	}
	for _, e := range r.errors {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	for k, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN: a missing measurement is a failed run.
			r.res.Metrics[k] = metric{0, m.Unit}
			r.res.Correct = false
			fmt.Fprintf(w, "CHECK FAILED: %s was not measured\n", k)
		}
	}
	line, _ := json.Marshal(r.res)
	fmt.Fprintf(w, "%s\n", line)
}

// save writes the result with its fingerprint beside the spans.
func (r *report) save(o options) {
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("result-%s-%d-%s.json", o.workload, o.seed, mode))
	raw, err := json.MarshalIndent(struct {
		Fingerprint Fingerprint `json:"fingerprint"`
		Result      result      `json:"result"`
		Notes       []string    `json:"notes"`
		Errors      []string    `json:"errors,omitempty"`
	}{r.fp, r.res, r.notes, r.errors}, "", "  ")
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: save result: %v\n", err)
	}
}

// writeSpans writes the kept spans of a traced run.
func writeSpans(o options, spans []span) error {
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}
