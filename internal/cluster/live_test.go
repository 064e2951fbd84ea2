package cluster_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sailfish/internal/cluster"
	"sailfish/internal/netpkt"
	"sailfish/internal/shardplane"
	"sailfish/internal/trace"
	"sailfish/internal/xgwh"
)

// liveRegion builds the two-tenant region the live tests push traffic
// through (one cluster per tenant, one x86 fallback node).
func liveRegion(t *testing.T) *cluster.Region {
	r := cluster.NewRegion(cluster.SmallConfig(), 2, 1)
	cluster.InstallTenant(t, r, 0, 100)
	cluster.InstallTenant(t, r, 1, 101)
	return r
}

// submitLive pushes one frame from the single dispatcher goroutine,
// retrying while the shard ring is full.
func submitLive(t *testing.T, p *shardplane.Plane, raw []byte) {
	for i := 0; !p.Submit(raw, cluster.T0()); i++ {
		if i > 1_000_000 {
			t.Fatal("submit stuck: ring never drained")
		}
		runtime.Gosched()
	}
}

// TestStatsCoherentUnderLiveDriver hammers the region's Stats, ResetStats
// and FallbackRatio, the plane's merged Stats and every gateway's snapshot
// from scraper goroutines, with one gateway's counters reset concurrently,
// while the plane's shard workers drive traffic through the region — the
// -race leg of the Makefile is the real assertion here.
func TestStatsCoherentUnderLiveDriver(t *testing.T) {
	r := liveRegion(t)
	p := shardplane.New(r, shardplane.Config{Shards: 2, RingSlots: 64})
	gw, ok := r.Clusters[0].Nodes[0].GW.(*xgwh.Gateway)
	if !ok {
		t.Fatal("cluster 0 node 0 is not a hardware gateway")
	}

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
				_ = p.Stats()
				for _, c := range r.Clusters {
					for _, n := range c.AllNodes() {
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
			gw.ResetStats()
		}
	}()

	const perTenant = 2000
	raws := [][]byte{
		cluster.BuildPacket(t, 100, "192.168.0.1", "192.168.0.5"),
		cluster.BuildPacket(t, 101, "192.168.0.1", "192.168.0.5"),
	}
	for i := 0; i < perTenant; i++ {
		for _, raw := range raws {
			submitLive(t, p, raw)
		}
	}
	p.Drain()
	close(stop)
	scrapers.Wait()
	st := p.Stats()
	p.Close()

	if want := uint64(perTenant * len(raws)); st.Accepted != want || st.Processed != want || st.Depth != 0 {
		t.Fatalf("plane accounting off under live scrapes: %+v, want %d processed", st, want)
	}
	if st.Region.Forwarded != st.Processed {
		t.Fatalf("forwarded %d of %d processed packets", st.Region.Forwarded, st.Processed)
	}
}

// TestTraceCoherentUnderLiveDriver hammers every shard's flight recorder,
// the merged drop tally and the merged heavy-hitter view from scraper
// goroutines while the plane's shard workers push traffic through the
// region — the -race leg of the Makefile is the real assertion here.
func TestTraceCoherentUnderLiveDriver(t *testing.T) {
	r := liveRegion(t)
	p := shardplane.New(r, shardplane.Config{
		Shards:       2,
		RingSlots:    64,
		Tracing:      &trace.Config{Shards: 4, SlotsPerShard: 256, SampleShift: 2},
		HeavyHitterK: 128,
	})
	recs := p.Recorders()

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
				for _, rec := range recs {
					_ = rec.Snapshot()
					_ = rec.Events(trace.Filter{DropsOnly: true})
					_ = rec.DropCounts()
				}
				_ = p.DropCounts()
				hh := p.HeavyHitters()
				_ = hh.TopFlows(10)
				_ = hh.HotEntries(0.95)
				_ = hh.VNISkewSummary()
			}
		}()
	}

	const perTenant = 2000
	const tenants = 2
	const unrouted = tenants * perTenant / 10 // every 10th packet has no steering
	for g := 0; g < tenants; g++ {
		for i := 0; i < perTenant; i++ {
			vni := netpkt.VNI(100 + g)
			if i%10 == 9 {
				vni = 999 // unsteered: front no_route drop, always recorded
			}
			submitLive(t, p, cluster.BuildPacket(t, vni, fmt.Sprintf("192.168.%d.%d", g, i%50+1), "192.168.0.5"))
		}
	}
	p.Drain()
	close(stop)
	scrapers.Wait()
	p.Close()

	// The trackers see every routed packet; unsteered ones never reach them.
	if got := p.HeavyHitters().TotalPackets(); got != tenants*perTenant-unrouted {
		t.Fatalf("heavy hitters observed %d packets, want %d routed", got, tenants*perTenant-unrouted)
	}
	var noRoute uint64
	for _, dc := range p.DropCounts() {
		if dc.Stage == trace.StageFront && dc.Reason == "no_route" {
			noRoute += dc.Count
		}
	}
	if noRoute != unrouted {
		t.Fatalf("recorders tallied %d front no_route drops, want %d", noRoute, unrouted)
	}
}
