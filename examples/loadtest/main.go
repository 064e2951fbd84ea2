// Loadtest drives a region through the sharded data plane — flows hashed
// onto per-shard rings, each shard running its packets to completion — with
// a multi-flow packet storm, then reports the achieved rate, the per-node
// ECMP spread, and the behavioral latency distribution of the folded
// pipeline model.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"runtime"
	"time"

	"sailfish/internal/cluster"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/shardplane"
	"sailfish/internal/tables"
)

// shards is the plane's run-to-completion worker count.
const shards = 2

// tally is one shard's share of the outcome accounting. The sink runs on
// the shard's own worker goroutine, so each tally is written by one
// goroutine only and read after Close.
type tally struct {
	perNode map[string]int
	errs    int
}

func main() {
	packets := flag.Int("n", 200_000, "packets to push")
	nodes := flag.Int("nodes", 4, "XGW-H nodes in the cluster")
	flag.Parse()

	cfg := cluster.DefaultConfig()
	cfg.NodesPerCluster = *nodes
	region := cluster.NewRegion(cfg, 1, 0)
	c := region.Clusters[0]
	c.InstallRoute(100, netip.MustParsePrefix("192.168.0.0/16"), tables.Route{Scope: tables.ScopeLocal})
	c.InstallVM(100, netip.MustParseAddr("192.168.0.5"), netip.MustParseAddr("100.64.0.5"))
	region.FrontEnd.Steering.Assign(100, 0)

	// Distinct flows so ECMP spreads work across nodes.
	flows := make([][]byte, 512)
	for i := range flows {
		b := netpkt.NewSerializeBuffer(128, 256)
		raw, err := (&netpkt.BuildSpec{
			VNI:      100,
			OuterSrc: netip.MustParseAddr("10.1.1.11"),
			OuterDst: netip.MustParseAddr("10.255.0.1"),
			InnerSrc: netip.MustParseAddr("192.168.0.1"),
			InnerDst: netip.MustParseAddr("192.168.0.5"),
			Proto:    netpkt.IPProtocolUDP,
			SrcPort:  uint16(i + 1), DstPort: 80,
			Payload: make([]byte, 64),
		}).Build(b)
		if err != nil {
			log.Fatal(err)
		}
		cp := make([]byte, len(raw))
		copy(cp, raw)
		flows[i] = cp
	}

	tallies := make([]tally, shards)
	for i := range tallies {
		tallies[i].perNode = map[string]int{}
	}
	lat := metrics.NewAtomicHistogram([]float64{2100, 2150, 2200, 2300, 2500})
	p := shardplane.New(region, shardplane.Config{
		Shards: shards,
		Sink: func(shard int, res cluster.Result, err error) {
			t := &tallies[shard]
			if err != nil {
				t.errs++
				return
			}
			t.perNode[res.NodeID]++
			lat.Observe(res.GW.LatencyNs)
		},
	})

	start := time.Now()
	now := time.Unix(0, 0)
	for i := 0; i < *packets; i++ {
		for !p.Submit(flows[i%len(flows)], now) {
			runtime.Gosched() // ring full: let the shard drain
		}
	}
	p.Close()
	elapsed := time.Since(start)

	perNode := map[string]int{}
	errs := 0
	for _, t := range tallies {
		for id, n := range t.perNode {
			perNode[id] += n
		}
		errs += t.errs
	}
	if errs > 0 {
		log.Fatalf("%d packets failed", errs)
	}

	fmt.Printf("pushed %d packets through %d nodes in %v (%.0f kpps behavioral)\n",
		*packets, *nodes, elapsed.Round(time.Millisecond),
		float64(*packets)/elapsed.Seconds()/1000)
	fmt.Println("per-node spread (ECMP):")
	for id, n := range perNode {
		fmt.Printf("  %-16s %7d (%.1f%%)\n", id, n, 100*float64(n)/float64(*packets))
	}
	fmt.Printf("modeled pipeline latency: mean %.0f ns, p50 ≤ %.0f ns, p99 ≤ %.0f ns\n",
		lat.Sum()/float64(lat.Count()), lat.Quantile(0.5), lat.Quantile(0.99))
	fmt.Println("(each packet crossed 2 folded pipeline passes; the model's chip does 1.8 Gpps)")
}
