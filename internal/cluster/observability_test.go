package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/xgwh"
)

// dropMix builds a region whose clusters exercise every submitting-side
// drop reason, plus the packet set that hits them: forwards on cluster 0,
// a disabled cluster, a cluster with no live nodes, a cluster with no
// healthy ports, an unsteered VNI and a malformed frame.
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

// drain consumes every outstanding driver result after Close.
func drain(d *Driver) int {
	n := 0
	for range d.Results() {
		n++
	}
	return n
}

// TestDriverDropAccountingParity runs the same packet mix through the
// single-shot region path, per-packet Submit, and SubmitBatch, and requires
// (a) identical RegionStats from all three, (b) identical DriverStats from
// both driver paths, and (c) every submitting-side drop reason accounted
// exactly once.
func TestDriverDropAccountingParity(t *testing.T) {
	rShot, raws := dropMix(t)
	for _, raw := range raws {
		rShot.ProcessPacket(raw, t0()) //nolint:errcheck // drops expected
	}

	rSingle, raws1 := dropMix(t)
	d1 := NewDriver(rSingle, 64)
	accepted1 := 0
	for _, raw := range raws1 {
		if d1.Submit(raw, t0()) {
			accepted1++
		}
	}
	d1.Close()
	drained1 := drain(d1)

	rBatch, raws2 := dropMix(t)
	d2 := NewDriver(rBatch, 64)
	accepted2 := d2.SubmitBatch(raws2, t0())
	d2.Close()
	drained2 := drain(d2)

	if accepted1 != 3 || accepted2 != 3 {
		t.Fatalf("accepted %d (single) / %d (batch), want 3", accepted1, accepted2)
	}
	if drained1 != accepted1 || drained2 != accepted2 {
		t.Fatalf("drained %d/%d for accepted %d/%d", drained1, drained2, accepted1, accepted2)
	}
	// The coarse region counters must agree across all three paths. The
	// per-reason FrontDrops map intentionally differs: the single-shot path
	// books its kills under the front-end taxonomy, the driver under its own
	// (asserted below), so it is compared separately.
	coarse := func(s RegionStats) RegionStats { s.FrontDrops = nil; return s }
	if s := coarse(rSingle.Stats()); !reflect.DeepEqual(s, coarse(rShot.Stats())) {
		t.Fatalf("Submit region stats %+v diverge from single-shot %+v", s, coarse(rShot.Stats()))
	}
	if s := coarse(rBatch.Stats()); !reflect.DeepEqual(s, coarse(rShot.Stats())) {
		t.Fatalf("SubmitBatch region stats %+v diverge from single-shot %+v", s, coarse(rShot.Stats()))
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
	if got := rShot.Stats().FrontDrops; !reflect.DeepEqual(got, wantFront) {
		t.Fatalf("front drop reasons = %v, want %v", got, wantFront)
	}
	if !reflect.DeepEqual(d1.Stats(), d2.Stats()) {
		t.Fatalf("driver stats diverge: single %+v, batch %+v", d1.Stats(), d2.Stats())
	}
	want := map[string]uint64{
		"parse_error":      1,
		"no_route":         1,
		"cluster_disabled": 1,
		"no_live_node":     1,
		"no_healthy_port":  1,
	}
	if got := d1.Stats(); !reflect.DeepEqual(got.DropReasons, want) {
		t.Fatalf("drop reasons = %v, want %v", got.DropReasons, want)
	}
	if got := d1.Stats(); got.Accepted != 3 || got.Dropped != 5 {
		t.Fatalf("accepted/dropped = %d/%d, want 3/5", got.Accepted, got.Dropped)
	}
}

// TestDriverSubmitDuringClose hammers Submit/SubmitBatch from several
// goroutines while Close runs. Before this fix a racing Submit panicked on
// the closed queue channel; now it must reject cleanly, count the drop as
// driver_closed, and never corrupt the accepted==drained invariant.
func TestDriverSubmitDuringClose(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	d := NewDriver(r, 8)
	raw := buildPacket(t, 100, "192.168.0.1", "192.168.0.5")

	drained := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range d.Results() {
			drained++
		}
	}()

	var accepted sync.WaitGroup
	var total int64
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		accepted.Add(1)
		go func() {
			defer accepted.Done()
			n := 0
			for i := 0; i < 500; i++ {
				if d.Submit(raw, t0()) {
					n++
				}
				n += d.SubmitBatch([][]byte{raw, raw}, t0())
			}
			mu.Lock()
			total += int64(n)
			mu.Unlock()
		}()
	}
	time.Sleep(time.Millisecond)
	d.Close()
	accepted.Wait()
	d.Close() // idempotent
	<-done

	if d.Submit(raw, t0()) {
		t.Fatal("Submit accepted after Close")
	}
	if n := d.SubmitBatch([][]byte{raw}, t0()); n != 0 {
		t.Fatalf("SubmitBatch accepted %d after Close", n)
	}
	if d.Stats().DropReasons["driver_closed"] == 0 {
		t.Fatal("driver_closed drops not counted")
	}
	if int64(drained) != total {
		t.Fatalf("drained %d results for %d accepted packets", drained, total)
	}
}

// TestDriverSubmitBatchZeroAlloc pins the steady-state SubmitBatch path at
// zero allocations per batch: the per-call grouping map is gone (pooled
// scratch), buffers and batches recycle, and results are drained
// synchronously so every pool refills between rounds.
func TestDriverSubmitBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow memory allocates on channel operations")
	}
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	d := NewDriver(r, 256)
	var raws [][]byte
	for i := 0; i < 32; i++ {
		// Distinct inner sources spread the flows across the cluster's nodes,
		// so the scratch groups several per-node batches per call.
		raws = append(raws, buildPacket(t, 100, fmt.Sprintf("192.168.1.%d", i+1), "192.168.0.5"))
	}
	now := t0()
	run := func() {
		accepted := d.SubmitBatch(raws, now)
		if accepted != len(raws) {
			t.Fatalf("accepted %d of %d", accepted, len(raws))
		}
		for i := 0; i < accepted; i++ {
			if dr := <-d.Results(); dr.Err != nil {
				t.Fatal(dr.Err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		run() // warm every pool
	}
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("steady-state SubmitBatch allocates %.1f per batch, want 0", allocs)
	}
	d.Close()
}

// TestDriverSaturatedSubmitZeroAlloc pins the backpressured SubmitBatch
// path: once the RX queues, the workers' result path and the results
// channel are all full (nothing drains them), every further submission is
// pure tail-drop recycling — route, copy into a recycled buffer, fail the
// queue send, recycle batch and buffer — and must not allocate. This is the
// regression guard for the driver/submit-batch bench residual: only the
// one-time queue-population ramp may allocate, never the steady state.
func TestDriverSaturatedSubmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow memory allocates on channel operations")
	}
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	d := NewDriver(r, 4)
	var raws [][]byte
	for i := 0; i < 16; i++ {
		raws = append(raws, buildPacket(t, 100, fmt.Sprintf("192.168.1.%d", i+1), "192.168.0.5"))
	}
	now := t0()
	// Saturate: with Results undrained the workers wedge on the full result
	// path and the queues stay full for good. Rejected submits alone do not
	// prove that — a worker may still be finishing a batch it pulled — so
	// wait until every channel on the path sits at capacity: the results,
	// the workers' result queue, and the RX queue of every node the batch
	// routes to.
	var targets []chan *jobBatch
	for _, raw := range raws {
		var j job
		if reason := d.route(raw, now, &j); reason != dDropNone {
			t.Fatalf("packet does not route: reason %d", reason)
		}
		d.putBuf(j.raw)
		if q := d.queues[j.node.ID]; !slices.Contains(targets, q) {
			targets = append(targets, q)
		}
	}
	full := func() bool {
		if len(d.results) < cap(d.results) || len(d.resultq) < cap(d.resultq) {
			return false
		}
		for _, q := range targets {
			if len(q) < cap(q) {
				return false
			}
		}
		return true
	}
	// The demux may still move one result batch after the channels first
	// read full, freeing one worker for one more batch; so the state must
	// also hold across a pause with nothing submitted.
	wedged := func() bool {
		if !full() {
			return false
		}
		time.Sleep(10 * time.Millisecond)
		return full()
	}
	for deadline := time.Now().Add(10 * time.Second); !wedged(); {
		if time.Now().After(deadline) {
			t.Fatal("driver never saturated")
		}
		d.SubmitBatch(raws, now)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if d.SubmitBatch(raws, now) != 0 {
			t.Fatal("queue drained unexpectedly mid-pin")
		}
	})
	if allocs != 0 {
		t.Fatalf("saturated SubmitBatch allocates %.1f per batch, want 0", allocs)
	}
	go func() {
		for range d.Results() {
		}
	}()
	d.Close()
}

// TestStatsCoherentUnderLiveDriver is the tentpole's acceptance check: Stats,
// ResetStats, FallbackRatio and the per-gateway snapshots are hammered from
// scraper goroutines while Driver workers process traffic, under -race.
func TestStatsCoherentUnderLiveDriver(t *testing.T) {
	r := NewRegion(smallConfig(), 2, 1)
	installTenant(t, r, 0, 100)
	installTenant(t, r, 1, 101)
	d := NewDriver(r, 64)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 3; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Stats()
				_ = r.FallbackRatio()
				_ = d.Stats()
				for _, c := range r.Clusters {
					for _, n := range c.Nodes {
						_ = n.GW.Stats()
					}
				}
			}
		}()
	}
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.ResetStats()
			d.ResetStats()
			if g, ok := r.Clusters[0].Nodes[0].GW.(*xgwh.Gateway); ok {
				g.ResetStats()
			}
		}
	}()

	var submitters sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for g := 0; g < 2; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			raw := buildPacket(t, netpkt.VNI(100+g), "192.168.0.1", "192.168.0.5")
			n := 0
			for i := 0; i < 2000; i++ {
				if d.Submit(raw, t0()) {
					n++
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(g)
	}

	drained := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range d.Results() {
			drained++
		}
	}()

	submitters.Wait()
	close(stop)
	scrapers.Wait()
	d.Close()
	<-done
	if drained != total {
		t.Fatalf("drained %d results for %d accepted packets", drained, total)
	}
}

// TestDriverRegisterMetricsExposition checks the driver's scrape surface:
// every drop reason label, the queue gauges, and the region families render
// into the Prometheus text format.
func TestDriverRegisterMetricsExposition(t *testing.T) {
	r, raws := dropMix(t)
	d := NewDriver(r, 64)
	reg := metrics.NewRegistry()
	r.RegisterMetrics(reg)
	d.RegisterMetrics(reg)
	d.SubmitBatch(raws, t0())
	d.Close()
	drain(d)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range append([]string{
		"sailfish_driver_accepted_total 3",
		"sailfish_driver_dropped_total 5",
		"sailfish_region_forwarded_total 3",
		"sailfish_region_noroute_total 1",
		"sailfish_region_dropped_total 4",
		"sailfish_driver_queue_capacity 64",
		`sailfish_driver_queue_depth{node="xgwh-main-0-0"} 0`,
		`sailfish_cluster_water_level{cluster="0"}`,
		"sailfish_region_fallback_ratio 0",
	}, func() []string {
		var out []string
		for _, reason := range DriverDropReasonNames() {
			out = append(out, `sailfish_driver_drops_total{reason="`+reason+`"}`)
		}
		return out
	}()...) {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, body)
		}
	}
}
