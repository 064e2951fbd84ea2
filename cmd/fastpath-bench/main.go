// Command fastpath-bench measures the software data plane's fast path and
// writes the numbers to a JSON file (default BENCH_fastpath.json) so the
// repository carries its current performance envelope alongside the code.
//
// These rows run via testing.Benchmark, so the output needs no go-test
// parsing:
//
//   - region/forward: single-shot Region.ProcessPacket, the end-to-end
//     behavioral fast path (steering → ECMP → folded XGW-H → rewrite);
//   - region/forward-traced: the same single-shot path with the flight
//     recorder (1-in-64 forward sampling) and the heavy-hitter tracker
//     enabled — the delta against region/forward is the tracing overhead;
//   - region/forward-batch: the same path through Region.ProcessBatch with
//     the result slice recycled;
//   - shardplane/forward-{1,2,4,8}: the multi-core sharded data plane —
//     flow-hash dispatch onto per-shard SPSC rings with one
//     run-to-completion lane per shard, GOMAXPROCS matched to the shard
//     count per row; the family's curve is the pps scaling story and each
//     row must be allocation-free;
//   - placement/cycle: one promotion/demotion cycle of the §5 residency
//     loop against the real controller while the hot set keeps shifting,
//     so every timed cycle pays a full churn budget of table moves;
//   - slo/evaluate: one SLO-engine tick over 64 tracked tenants — the
//     off-fast-path evaluator cost (snapshot every tenant's counters, push
//     the sample rings, compute both burn windows, transition alerts). The
//     pps column is tenants evaluated per second.
//
// Two SNAT rows measure the survivable session store (§4.2, Fig. 11) at
// population, each at 1M and 10M pre-established sessions:
//
//   - snat/translate-*: the Translate hit path against the sharded store.
//     This path must stay allocation-free at any population; the run exits
//     non-zero if allocs/op is not 0, which is the bench-smoke regression
//     guard for the fast path.
//   - snat/replicate-*: the full delta pipeline — journal a batch of
//     refresh deltas, then one Sync round copying and applying them to the
//     standby; the pps column is deltas/second.
//
// A separate instrumented pass (not a benchmark: the per-stage clock reads
// would distort the ns/op rows above) attaches the stage latency histograms
// and reports p50/p99 per stage in stage_latencies_ns.
//
// Each row is one sample, so a single run cannot show a regression. For
// that, run perfbench/run.sh on the old and the new commit in alternating
// A/B pairs on one machine (see perfbench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	sailfish "sailfish"
	"sailfish/internal/heavyhitter"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/placement"
	"sailfish/internal/shardplane"
	"sailfish/internal/slo"
	"sailfish/internal/snat"
	"sailfish/internal/tables"
	"sailfish/internal/trace"
)

type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Pps is packets per second implied by NsPerOp (ops may batch several
	// packets; the conversion accounts for that).
	Pps  float64 `json:"pps"`
	Note string  `json:"note,omitempty"`
	// TCAMEntries/SRAMSlots record the structure's occupancy for rows that
	// measure a memory shape rather than a packet path (the lpm/* rows):
	// TCAM pivot rows and allocated SRAM slots after the build.
	TCAMEntries int `json:"tcam_entries,omitempty"`
	SRAMSlots   int `json:"sram_slots,omitempty"`
}

// stageQuantile is one row of the per-stage latency profile: nearest-rank
// p50/p99 estimates read from the PR 3 AtomicHistogram buckets, so the
// values are bucket upper bounds, not exact sample quantiles.
type stageQuantile struct {
	Stage   string  `json:"stage"`
	Samples uint64  `json:"samples"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

type report struct {
	// Baselines are frozen pre-optimization numbers kept for comparison:
	// they are inputs to this file, not measured by this run.
	Baselines []entry `json:"baselines"`
	// Results are measured on the machine that ran `make bench`.
	Results []entry `json:"results"`
	// StageLatencies profiles the forward path with stage histograms
	// attached (steer in the region front end; parse/pipeline/rewrite
	// inside the gateway). Measured in a dedicated instrumented pass.
	StageLatencies []stageQuantile `json:"stage_latencies_ns"`
	GoMaxProcs     int             `json:"gomaxprocs"`
	GoVersion      string          `json:"go_version"`
	GeneratedBy    string          `json:"generated_by"`
}

const batchSize = 64

var benchTime = time.Unix(0, 0)

func newDeployment(nodes int) (*sailfish.Deployment, [][]byte) {
	d := sailfish.NewDeployment(sailfish.Options{Clusters: 1, NodesPerCluster: nodes, FallbackNodes: 0})
	vm1 := netip.MustParseAddr("192.168.10.2")
	vm2 := netip.MustParseAddr("192.168.10.3")
	if _, err := d.AddTenant(sailfish.Tenant{
		VNI:    100,
		Prefix: netip.MustParsePrefix("192.168.10.0/24"),
		VMs: map[netip.Addr]netip.Addr{
			vm1: netip.MustParseAddr("10.1.1.11"),
			vm2: netip.MustParseAddr("10.1.1.12"),
		},
	}); err != nil {
		panic(err)
	}
	raws := make([][]byte, batchSize)
	for i := range raws {
		raw, err := sailfish.BuildVXLAN(100, vm1, vm2, sailfish.ProtoTCP, uint16(4242+i), 80, make([]byte, 64))
		if err != nil {
			panic(err)
		}
		raws[i] = append([]byte(nil), raw...)
	}
	return d, raws
}

func toEntry(name string, r testing.BenchmarkResult, pktsPerOp int, note string) entry {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return entry{
		Name:        name,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Pps:         float64(pktsPerOp) * 1e9 / ns,
		Note:        note,
	}
}

func benchSingleShot() entry {
	d, raws := newDeployment(2)
	raw := raws[0]
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := d.DeliverVXLANAt(raw, benchTime)
			if err != nil {
				b.Fatal(err)
			}
			if res.GW.Action != sailfish.ActionForward {
				b.Fatal("not forwarded")
			}
		}
	})
	return toEntry("region/forward", r, 1, "single-shot ProcessPacket, 1 cluster x 2 nodes")
}

// benchTraced repeats the single-shot benchmark with the PR 4 observability
// stack live: flight recorder at the production 1-in-64 forward sampling
// plus the SpaceSaving heavy-hitter tracker. The delta against
// region/forward is what always-on tracing costs the fast path.
func benchTraced() entry {
	d, raws := newDeployment(2)
	rec := trace.New(trace.Config{Shards: 4, SlotsPerShard: 1024, SampleShift: 6})
	d.Region.EnableTracing(rec)
	d.Region.EnableHeavyHitters(heavyhitter.NewTracker(1024))
	raw := raws[0]
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := d.DeliverVXLANAt(raw, benchTime)
			if err != nil {
				b.Fatal(err)
			}
			if res.GW.Action != sailfish.ActionForward {
				b.Fatal("not forwarded")
			}
		}
	})
	return toEntry("region/forward-traced", r, 1,
		"single-shot with flight recorder (1-in-64 sampling) + heavy-hitter tracker; delta vs region/forward is the tracing overhead")
}

// measureStages runs the forward path with the stage latency histograms
// attached and reads back p50/p99 per stage. Kept out of the benchmark rows
// because the per-stage clock reads inflate ns/op.
func measureStages() []stageQuantile {
	d, raws := newDeployment(2)
	reg := metrics.NewRegistry()
	sh := metrics.NewStageHistograms(reg, "sailfish_bench_stage_latency_ns", "fast-path stage latency")
	d.Region.EnableStageMetrics(sh)
	for _, c := range d.Region.Clusters {
		for _, n := range c.Nodes {
			if g, ok := n.GW.(interface {
				EnableStageMetrics(*metrics.StageHistograms)
			}); ok {
				g.EnableStageMetrics(sh)
			}
		}
	}
	const pkts = 100_000
	for i := 0; i < pkts; i++ {
		if _, err := d.DeliverVXLANAt(raws[i%len(raws)], benchTime); err != nil {
			panic(err)
		}
	}
	var out []stageQuantile
	for _, s := range []struct {
		name string
		h    *metrics.AtomicHistogram
	}{
		{"steer", sh.Steer},
		{"parse", sh.Parse},
		{"pipeline", sh.Pipeline},
		{"rewrite", sh.Rewrite},
	} {
		// Quantile reports NaN on an empty histogram; JSON has no NaN, so
		// an unexercised stage is published as 0 samples with zero quantiles.
		p50, p99 := s.h.Quantile(0.50), s.h.Quantile(0.99)
		if math.IsNaN(p50) {
			p50 = 0
		}
		if math.IsNaN(p99) {
			p99 = 0
		}
		out = append(out, stageQuantile{
			Stage:   s.name,
			Samples: s.h.Count(),
			P50Ns:   p50,
			P99Ns:   p99,
		})
	}
	return out
}

func benchBatch() entry {
	d, raws := newDeployment(2)
	out := make([]sailfish.BatchResult, 0, batchSize)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = d.DeliverVXLANBatchAt(raws, benchTime, out[:0])
			for j := range out {
				if out[j].Err != nil {
					b.Fatal(out[j].Err)
				}
			}
		}
	})
	return toEntry("region/forward-batch", r, batchSize,
		fmt.Sprintf("ProcessBatch, %d packets per op, recycled result slice", batchSize))
}

// benchShardPlane measures the multi-core sharded data plane at a given
// shard count: one dispatcher goroutine hashing frames onto per-shard SPSC
// rings, one run-to-completion worker lane per shard. GOMAXPROCS is set to
// the shard count plus the dispatcher for the duration of the row, so the
// family's scaling curve reflects the core budget it would get in
// production; on a runner with fewer CPUs the note records the truth and
// the ns/op rows show scheduler interleaving, not parallel speedup.
func benchShardPlane(shards int) entry {
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(shards + 1)
	defer runtime.GOMAXPROCS(prev)
	d, raws := newDeployment(2)
	p := shardplane.New(d.Region, shardplane.Config{Shards: shards, RingSlots: 4096})
	var retries, spin uint64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for !p.Submit(raws[i%len(raws)], benchTime) {
				retries++
				if spin++; spin%256 == 0 {
					time.Sleep(20 * time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
			spin = 0
		}
		// Settle the tail so ns/op covers completion, not just enqueue.
		p.Drain()
	})
	st := p.Stats()
	p.Close()
	if st.Processed != st.Accepted || st.Region.Forwarded != st.Processed {
		fmt.Fprintf(os.Stderr, "FAIL: shardplane/forward-%d lost packets: %+v\n", shards, st)
		os.Exit(1)
	}
	return toEntry(fmt.Sprintf("shardplane/forward-%d", shards), r, 1, fmt.Sprintf(
		"%d shard(s), 64 flows over SPSC rings; GOMAXPROCS=%d of %d cpu(s); %d submit retries; must be 0 allocs/op",
		shards, shards+1, runtime.NumCPU(), retries))
}

// benchPlacementCycle times the promotion-churn path: RunCycle over four
// software-placed tenants while a 64-key hot set shifts by 24 keys per
// cycle, so every timed cycle drains its full churn budget (24 promotions +
// 24 demotions) through the controller's push/evict machinery. The tracker
// is fed outside the timed section — the row measures cycle cost, not
// Observe cost (that overhead is region/forward-traced's job).
func benchPlacementCycle() entry {
	const (
		tenants = 4
		vmsPer  = 100
		keys    = tenants * vmsPer
		hotSet  = 64
		shift   = 24
		budget  = 2 * shift
	)
	d := sailfish.NewDeployment(sailfish.Options{Clusters: 1, FallbackNodes: 1})
	dips := make([]netip.Addr, keys)
	for ti := 0; ti < tenants; ti++ {
		t := sailfish.Tenant{
			VNI:    sailfish.VNI(100 + ti),
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(ti), 0, 0}), 16),
			VMs:    map[netip.Addr]netip.Addr{},
		}
		for vi := 0; vi < vmsPer; vi++ {
			k := ti*vmsPer + vi
			dips[k] = netip.AddrFrom4([4]byte{10, byte(ti), byte(vi), 2})
			t.VMs[dips[k]] = netip.AddrFrom4([4]byte{100, 64, byte(ti), byte(vi)})
		}
		if _, err := d.AddTenantSoftware(t); err != nil {
			panic(err)
		}
	}
	hh := heavyhitter.NewTracker(1024)
	loop := placement.New(placement.Config{
		CoverageTarget: 1,
		PromoteShare:   0.001, // 1/64 per hot key per window: all qualify
		ChurnBudget:    budget,
		WindowReset:    true,
		Now:            func() time.Time { return benchTime },
	}, d.Controller, hh)
	feed := func(start int) {
		for i := 0; i < hotSet; i++ {
			k := (start + i) % keys
			hh.Observe(0, sailfish.VNI(100+k/vmsPer), uint64(k), dips[k], 128)
		}
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		start := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			feed(start)
			start = (start + shift) % keys
			b.StartTimer()
			rep := loop.RunCycle()
			if rep.Failed > 0 {
				b.Fatalf("cycle %d: %d moves failed", rep.Cycle, rep.Failed)
			}
		}
	})
	return toEntry("placement/cycle", r, 1, fmt.Sprintf(
		"RunCycle, %d-key hot set shifting %d keys/cycle over %d desired entries; "+
			"steady state moves %d keys/cycle through the controller; pps column is cycles/sec",
		hotSet, shift, d.Controller.DesiredEntries(), budget))
}

// benchPlacement3Tier times the residency-ladder cycle: RunCycle over four
// software-placed tenants with a DPU middle tier attached, a 64-key hot band
// and a 128-key warm band both sliding 24 keys per cycle. The warm band
// trails the hot band, so every timed cycle drains fresh hardware promotions,
// HW→DPU cascade demotions, and DPU evictions — the full three-tier churn
// machinery, not just the binary path benchPlacementCycle measures.
func benchPlacement3Tier() entry {
	const (
		tenants  = 4
		vmsPer   = 100
		keys     = tenants * vmsPer
		hotSet   = 64
		warmSet  = 128
		shift    = 24
		budget   = 2 * shift
		dpuOpCap = 2 * budget
	)
	d := sailfish.NewDeployment(sailfish.Options{Clusters: 1, FallbackNodes: 1, DPUDevices: 2})
	dips := make([]netip.Addr, keys)
	for ti := 0; ti < tenants; ti++ {
		t := sailfish.Tenant{
			VNI:    sailfish.VNI(100 + ti),
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(ti), 0, 0}), 16),
			VMs:    map[netip.Addr]netip.Addr{},
		}
		for vi := 0; vi < vmsPer; vi++ {
			k := ti*vmsPer + vi
			dips[k] = netip.AddrFrom4([4]byte{10, byte(ti), byte(vi), 2})
			t.VMs[dips[k]] = netip.AddrFrom4([4]byte{100, 64, byte(ti), byte(vi)})
		}
		if _, err := d.AddTenantSoftware(t); err != nil {
			panic(err)
		}
	}
	hh := heavyhitter.NewTracker(1024)
	loop := placement.New(placement.Config{
		CoverageTarget: 1,
		// Hot keys carry 4/384 ≈ 1.0e-2 per window, warm keys 1/384 ≈
		// 2.6e-3: the thresholds put the bands on their intended rungs and
		// make a key leaving the hot band cascade (warm-band share sits
		// between WarmDemoteShare and DemoteShare).
		PromoteShare:   8e-3,
		DemoteShare:    4e-3,
		WarmShare:      2e-3,
		ChurnBudget:    budget,
		DPUChurnBudget: dpuOpCap,
		WindowReset:    true,
		Now:            func() time.Time { return benchTime },
	}, d.Controller, hh)
	feed := func(start int) {
		for i := 0; i < hotSet; i++ {
			k := (start + i) % keys
			for j := 0; j < 4; j++ {
				hh.Observe(0, sailfish.VNI(100+k/vmsPer), uint64(k), dips[k], 128)
			}
		}
		for i := 1; i <= warmSet; i++ {
			k := (start - i + keys) % keys
			hh.Observe(0, sailfish.VNI(100+k/vmsPer), uint64(k), dips[k], 128)
		}
	}
	var cascades uint64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		cascades = 0
		start := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			feed(start)
			start = (start + shift) % keys
			b.StartTimer()
			rep := loop.RunCycle()
			if rep.Failed > 0 {
				b.Fatalf("cycle %d: %d moves failed", rep.Cycle, rep.Failed)
			}
			cascades += uint64(rep.Cascaded)
		}
	})
	return toEntry("placement/3tier", r, 1, fmt.Sprintf(
		"ladder RunCycle, %d-key hot + %d-key warm bands sliding %d keys/cycle over %d desired entries; "+
			"%d HW→DPU cascades across the run; pps column is cycles/sec",
		hotSet, warmSet, shift, d.Controller.DesiredEntries(), cascades))
}

// SNAT bench shape: 256 public IPs × 64 shards gives 16.5M session capacity,
// so the 10M row runs the store at ~60% port-space fill.
const (
	snatIPs    = 256
	snatShards = 64
)

func snatPool(n int) []netip.Addr {
	ips := make([]netip.Addr, n)
	for i := range ips {
		ips[i] = netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)})
	}
	return ips
}

// snatKey derives the i-th distinct session key (the source address carries
// the low 24 bits of i). Pure value construction — benchmark loops call it
// inline without allocating.
func snatKey(i int) tables.SNATKey {
	return tables.SNATKey{
		VNI: 300,
		Flow: netpkt.Flow{
			Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     netip.AddrFrom4([4]byte{93, 184, 216, 34}),
			Proto:   netpkt.IPProtocolUDP,
			SrcPort: uint16(1024 + i%60000),
			DstPort: 443,
		},
	}
}

func snatScale(sessions int) string {
	if sessions >= 1_000_000 {
		return fmt.Sprintf("%dm", sessions/1_000_000)
	}
	return fmt.Sprintf("%dk", sessions/1_000)
}

// benchSNATTranslate measures the Translate hit path with `sessions` live
// sessions resident. The loop cycles through every established key, so the
// working set genuinely misses cache at the large populations.
// benchSLOEvaluate measures one evaluator pass of the per-tenant SLO
// engine: 64 tracked tenants, each with fresh counter traffic per tick, a
// full sample-ring push, both burn windows computed, and alert transitions
// checked. This is the control-loop cost the daemon pays once a second —
// the data-plane side (Collector increments) is covered by the alloc-pinned
// region/forward rows, which run with the collector attached in the
// cluster package's tests.
func benchSLOEvaluate() entry {
	const tenants = 64
	col := slo.NewCollector()
	for i := 0; i < tenants; i++ {
		col.Track(netpkt.VNI(100 + i))
	}
	eng := slo.NewEngine(slo.Config{}, col, slo.NewJournal(slo.DefaultJournalDepth))
	now := benchTime
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for t := 0; t < tenants; t++ {
				col.Forward(netpkt.VNI(100 + t))
			}
			now = now.Add(time.Second)
			eng.Tick(now)
		}
	})
	return toEntry("slo/evaluate", r, tenants, fmt.Sprintf(
		"one engine tick over %d tracked tenants (snapshot, ring push, two burn windows, alert transitions); pps is tenants/sec",
		tenants))
}

func benchSNATTranslate(sessions int) entry {
	st := snat.New(snat.Config{PublicIPs: snatPool(snatIPs), Shards: snatShards, JournalDepth: 4096})
	for i := 0; i < sessions; i++ {
		if _, err := st.Translate(snatKey(i), benchTime); err != nil {
			panic(err)
		}
	}
	i := 0
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := st.Translate(snatKey(i), benchTime); err != nil {
				b.Fatal(err)
			}
			if i++; i == sessions {
				i = 0
			}
		}
	})
	return toEntry("snat/translate-"+snatScale(sessions), r, 1, fmt.Sprintf(
		"Translate hit path, %d resident sessions over %d shards × %d IPs, %d MiB resident; must be 0 allocs/op",
		sessions, snatShards, snatIPs, st.MemoryBytes()>>20))
}

// benchSNATReplicate measures the journal→standby delta pipeline at
// population: each op stamps a new second, touches a batch of established
// sessions (journaling one refresh delta apiece), and runs one Sync round
// that copies and applies the batch to the standby.
func benchSNATReplicate(sessions int) entry {
	const deltasPerOp = 1024
	svc := snat.NewService(snat.ServiceConfig{Store: snat.Config{
		PublicIPs: snatPool(snatIPs), Shards: snatShards, JournalDepth: 8192,
	}})
	now := benchTime
	for i := 0; i < sessions; i++ {
		if _, err := svc.Active().Translate(snatKey(i), now); err != nil {
			panic(err)
		}
	}
	// The population overflowed every journal ring; this Sync detects the
	// gaps and bootstraps the standby with full-shard snapshots, leaving the
	// timed loop to measure steady-state delta replication only.
	svc.Sync(now)
	cursor := 0
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			now = now.Add(time.Second)
			for j := 0; j < deltasPerOp; j++ {
				svc.Active().Touch(snatKey(cursor), now)
				if cursor++; cursor == sessions {
					cursor = 0
				}
			}
			if rep := svc.Sync(now); rep.Failed > 0 {
				b.Fatalf("sync failed %d shards", rep.Failed)
			}
		}
	})
	return toEntry("snat/replicate-"+snatScale(sessions), r, deltasPerOp, fmt.Sprintf(
		"journal+Sync of %d refresh deltas/op into a standby holding %d sessions; pps column is deltas/sec",
		deltasPerOp, sessions))
}

func main() {
	out := flag.String("o", "BENCH_fastpath.json", "output file")
	snatMax := flag.Int("snat-max", 10_000_000, "largest SNAT session population to bench (bench-smoke trims this)")
	lpmMax := flag.Int("lpm-max", 1_000_000, "largest LPM route database to bench (bench-smoke trims this)")
	flag.Parse()

	rep := report{
		Baselines: []entry{
			{Name: "region/forward", NsPerOp: 6126, BytesPerOp: 536, AllocsPerOp: 9,
				Pps: 1e9 / 6126, Note: "pre-optimization baseline recorded in ISSUE (reference machine)"},
			{Name: "region/forward", NsPerOp: 797, BytesPerOp: 236, AllocsPerOp: 7,
				Pps: 1e9 / 797, Note: "pre-optimization baseline re-measured on the 1-vCPU CI container"},
		},
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GeneratedBy: "go run ./cmd/fastpath-bench",
	}
	benches := []func() entry{benchSingleShot, benchTraced, benchBatch}
	for _, shards := range []int{1, 2, 4, 8} {
		s := shards
		benches = append(benches, func() entry { return benchShardPlane(s) })
	}
	benches = append(benches, benchPlacementCycle)
	benches = append(benches, benchPlacement3Tier)
	benches = append(benches, benchSLOEvaluate)
	for _, sessions := range []int{1_000_000, 10_000_000} {
		if sessions > *snatMax {
			continue
		}
		s := sessions
		benches = append(benches,
			func() entry { return benchSNATTranslate(s) },
			func() entry { return benchSNATReplicate(s) })
	}
	emit := func(e entry) {
		fmt.Printf("%-22s %10.1f ns/op %6d B/op %4d allocs/op %12.0f pps  %s\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.Pps, e.Note)
		if (strings.HasPrefix(e.Name, "snat/translate") || strings.HasPrefix(e.Name, "shardplane/forward")) &&
			e.AllocsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %s allocates %d B in %d allocs/op; this fast path must be allocation-free\n",
				e.Name, e.BytesPerOp, e.AllocsPerOp)
			os.Exit(1)
		}
		rep.Results = append(rep.Results, e)
	}
	for _, bench := range benches {
		emit(bench())
	}
	lpmN := 1_000_000
	if *lpmMax < lpmN {
		lpmN = *lpmMax
	}
	for _, zipf := range []bool{false, true} {
		for _, e := range benchLPM(lpmN, zipf) {
			emit(e)
		}
	}
	rep.StageLatencies = measureStages()
	for _, s := range rep.StageLatencies {
		fmt.Printf("stage %-10s %8d samples  p50 %8.0f ns  p99 %8.0f ns\n",
			s.Stage, s.Samples, s.P50Ns, s.P99Ns)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
