// Package heavyhitter measures the traffic skew that the paper's §5 "95/5"
// placement rule depends on: at cloud scale a few percent of (VNI,
// inner-DIP) route entries carry ~95% of traffic, so only those earn XGW-H
// table residency while the long tail rides the x86 pool. The data plane
// cannot afford exact per-flow counting, so this package implements the
// SpaceSaving top-K sketch (Metwally et al., "Efficient computation of
// frequent and top-k elements in data streams", 2005): K counters, O(1)
// amortised per observation, with a per-entry error bound — the reported
// estimate is always >= the true count, and (estimate - err) is always <=
// the true count, so a controller can rank candidates with known slack.
//
// A Tracker wraps one flow sketch and one route-entry sketch per cluster
// plus exact per-VNI totals (VNIs number in the thousands, not millions, so
// exact counting is affordable there). In steady state — hot keys already
// tracked — Observe allocates nothing, which is what lets the fast path
// feed it while keeping its 0 allocs/op pin.
package heavyhitter

import (
	"math"
	"net/netip"
	"sort"
	"sync"

	"sailfish/internal/netpkt"
)

// ssSlot is one monitored counter in a SpaceSaving sketch. A slot never
// moves once assigned; only its heap position changes.
type ssSlot[K comparable] struct {
	key   K
	count uint64 // estimated count (an overestimate)
	err   uint64 // max overestimation carried in from the evicted entry
	pos   int32  // position of this slot in heap
}

// SpaceSaving is a top-K frequency sketch over keys of type K. Entries live
// in stable slots and the min-heap orders slot numbers, so a sift moves
// int32s and the key index is written only when a key enters or leaves the
// sketch. Not concurrency-safe; Tracker provides locking.
type SpaceSaving[K comparable] struct {
	k     int
	slots []ssSlot[K]
	heap  []int32     // slot numbers, min-heap ordered by count
	index map[K]int32 // key -> slot
}

// NewSpaceSaving builds a sketch tracking at most k keys.
func NewSpaceSaving[K comparable](k int) *SpaceSaving[K] {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving[K]{k: k, index: make(map[K]int32, k)}
}

// Observe adds n occurrences of key. If the key is untracked and the sketch
// is full, the minimum entry is evicted and its count becomes the new
// entry's error bound — the SpaceSaving recycle step. Once the working set
// of hot keys is resident this path performs no allocation.
func (s *SpaceSaving[K]) Observe(key K, n uint64) {
	s.absorb(key, n, 0)
}

// absorb adds count occurrences of key carrying err of overestimation: the
// key's own error bound on a hit, and on a newcomer that evicts the minimum,
// err plus the evicted count. Observe is absorb with no error; Tracker
// merging folds other sketches' exported entries in through it.
func (s *SpaceSaving[K]) absorb(key K, count, err uint64) {
	if i, ok := s.index[key]; ok {
		e := &s.slots[i]
		e.count += count
		e.err += err
		s.siftDown(int(e.pos))
		return
	}
	if len(s.slots) < s.k {
		i := int32(len(s.slots))
		s.slots = append(s.slots, ssSlot[K]{key: key, count: count, err: err, pos: int32(len(s.heap))})
		s.heap = append(s.heap, i)
		s.index[key] = i
		s.siftUp(len(s.heap) - 1)
		return
	}
	// Evict the minimum: the newcomer inherits its counter, and that old
	// count becomes the bound on how much we may now be overestimating.
	i := s.heap[0]
	e := &s.slots[i]
	delete(s.index, e.key)
	e.err = e.count + err
	e.count += count
	e.key = key
	s.index[key] = i
	s.siftDown(0)
}

// reset empties the sketch in place, keeping its storage for the next
// window.
func (s *SpaceSaving[K]) reset() {
	clear(s.index)
	s.slots = s.slots[:0]
	s.heap = s.heap[:0]
}

// Counted is a sketch entry exported for ranking: Count >= true count and
// Count-Err <= true count.
type Counted[K comparable] struct {
	Key   K
	Count uint64
	Err   uint64
}

// Top returns all tracked entries, highest estimated count first.
func (s *SpaceSaving[K]) Top() []Counted[K] {
	out := make([]Counted[K], len(s.heap))
	for i, si := range s.heap {
		e := &s.slots[si]
		out[i] = Counted[K]{Key: e.key, Count: e.count, Err: e.err}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// Len reports how many keys the sketch currently tracks.
func (s *SpaceSaving[K]) Len() int { return len(s.heap) }

func (s *SpaceSaving[K]) less(i, j int) bool {
	return s.slots[s.heap[i]].count < s.slots[s.heap[j]].count
}

func (s *SpaceSaving[K]) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	s.slots[h[i]].pos = int32(i)
	s.slots[h[j]].pos = int32(j)
}

func (s *SpaceSaving[K]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *SpaceSaving[K]) siftDown(i int) {
	n := len(s.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && s.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && s.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		s.swap(i, least)
		i = least
	}
}

// FlowKey identifies a flow by tenant network and inner 5-tuple hash.
type FlowKey struct {
	VNI  netpkt.VNI
	Hash uint64
}

// RouteKey identifies a gateway table entry: the (VNI, inner destination)
// pair that would occupy an XGW-H slot.
type RouteKey struct {
	VNI netpkt.VNI
	DIP netip.Addr
}

// clusterSketch is one cluster's view: hot flows and hot route entries.
// Shares are taken against the tracker-wide packet total.
type clusterSketch struct {
	flows  *SpaceSaving[FlowKey]
	routes *SpaceSaving[RouteKey]
}

// vniCount is an exact per-VNI tally.
type vniCount struct {
	vni   netpkt.VNI
	pkts  uint64
	bytes uint64
}

// Tracker is the controller-facing aggregator the steering paths feed. All
// methods are safe for concurrent use; Observe takes one uncontended mutex
// and, in steady state, allocates nothing.
type Tracker struct {
	mu       sync.Mutex
	k        int
	clusters map[int]*clusterSketch
	vniIndex map[netpkt.VNI]int32 // VNI -> slot in vnis
	vnis     []vniCount
	pkts     uint64
}

// NewTracker builds a Tracker whose per-cluster sketches hold k entries
// each (k <= 0 defaults to 1024, comfortably above the hot-entry population
// the 95/5 rule predicts).
func NewTracker(k int) *Tracker {
	if k <= 0 {
		k = 1024
	}
	return &Tracker{
		k:        k,
		clusters: make(map[int]*clusterSketch),
		vniIndex: make(map[netpkt.VNI]int32),
	}
}

// cluster returns cluster id's sketch, creating it on first use.
func (t *Tracker) cluster(id int) *clusterSketch {
	cs := t.clusters[id]
	if cs == nil {
		cs = &clusterSketch{
			flows:  NewSpaceSaving[FlowKey](t.k),
			routes: NewSpaceSaving[RouteKey](t.k),
		}
		t.clusters[id] = cs
	}
	return cs
}

// vni returns vni's tally, creating it on first use.
func (t *Tracker) vni(vni netpkt.VNI) *vniCount {
	i, ok := t.vniIndex[vni]
	if !ok {
		i = int32(len(t.vnis))
		t.vnis = append(t.vnis, vniCount{vni: vni})
		t.vniIndex[vni] = i
	}
	return &t.vnis[i]
}

// Observe records one steered packet: which cluster it went to, its tenant
// network, flow hash, inner destination and wire length.
func (t *Tracker) Observe(cluster int, vni netpkt.VNI, flowHash uint64, dip netip.Addr, wireLen int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	cs := t.cluster(cluster)
	cs.flows.Observe(FlowKey{VNI: vni, Hash: flowHash}, 1)
	cs.routes.Observe(RouteKey{VNI: vni, DIP: dip}, 1)
	vc := t.vni(vni)
	vc.pkts++
	vc.bytes += uint64(wireLen)
	t.pkts++
	t.mu.Unlock()
}

// Merge returns a fresh Tracker combining the given trackers' sketches and
// tallies — the scrape-side view of a sharded plane where each shard worker
// feeds its own tracker. Exact tallies (per-VNI and the packet total) sum
// exactly. Sketch entries sum count and error bounds per key: flows are
// sharded by flow hash so each FlowKey's whole substream lives in exactly
// one shard tracker and the summed bounds stay valid; route keys can span
// shards, where the merged estimate keeps Count >= (sum of tracked
// substreams) with the usual SpaceSaving error semantics. Merging allocates;
// it is for scrape cadence, not the packet path. Nil trackers are skipped.
func Merge(k int, shards ...*Tracker) *Tracker {
	m := NewTracker(k)
	for _, t := range shards {
		if t == nil {
			continue
		}
		t.mu.Lock()
		for id, cs := range t.clusters {
			mc := m.cluster(id)
			// Entries fold in heap order.
			for _, i := range cs.flows.heap {
				e := &cs.flows.slots[i]
				mc.flows.absorb(e.key, e.count, e.err)
			}
			for _, i := range cs.routes.heap {
				e := &cs.routes.slots[i]
				mc.routes.absorb(e.key, e.count, e.err)
			}
		}
		for _, vc := range t.vnis {
			mv := m.vni(vc.vni)
			mv.pkts += vc.pkts
			mv.bytes += vc.bytes
		}
		m.pkts += t.pkts
		t.mu.Unlock()
	}
	return m
}

// Reset discards every sketch entry and tally, starting a fresh
// measurement window. The placement loop uses it to make per-cycle shares
// reflect the current workload instead of all traffic since boot, so
// entries whose popularity faded actually fall below the demotion
// threshold. The sketches are emptied in place and keep their storage, so
// re-warming them with a similar key set allocates nothing.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, cs := range t.clusters {
		cs.flows.reset()
		cs.routes.reset()
	}
	clear(t.vniIndex)
	t.vnis = t.vnis[:0]
	t.pkts = 0
	t.mu.Unlock()
}

// TotalPackets reports how many observations the tracker has absorbed.
func (t *Tracker) TotalPackets() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pkts
}

// HotFlow is one entry of the flow top-K, ranked across clusters.
type HotFlow struct {
	Cluster  int
	VNI      netpkt.VNI
	FlowHash uint64
	Packets  uint64 // SpaceSaving estimate (>= true count)
	MaxErr   uint64 // overestimation bound
	Share    float64
}

// TopFlows returns up to n hot flows across every cluster, highest
// estimated packet count first.
func (t *Tracker) TopFlows(n int) []HotFlow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []HotFlow
	for id, cs := range t.clusters {
		for _, c := range cs.flows.Top() {
			out = append(out, HotFlow{
				Cluster:  id,
				VNI:      c.Key.VNI,
				FlowHash: c.Key.Hash,
				Packets:  c.Count,
				MaxErr:   c.Err,
				Share:    share(c.Count, t.pkts),
			})
		}
	}
	// Equal counts rank by (cluster, VNI, flow hash) so the order does not
	// depend on map iteration.
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Packets != b.Packets {
			return a.Packets > b.Packets
		}
		if a.Cluster != b.Cluster {
			return a.Cluster < b.Cluster
		}
		if a.VNI != b.VNI {
			return a.VNI < b.VNI
		}
		return a.FlowHash < b.FlowHash
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// HotEntry is a (VNI, inner-DIP) route entry that qualifies for XGW-H
// residency.
type HotEntry struct {
	Cluster int
	VNI     netpkt.VNI
	DIP     netip.Addr
	Packets uint64 // SpaceSaving estimate (>= true count)
	MaxErr  uint64
	Share   float64
}

// Residency is the controller-facing answer to "which entries deserve
// hardware slots": the smallest prefix of the route-entry ranking whose
// estimated cumulative share reaches Target.
type Residency struct {
	Target   float64    // requested traffic coverage, e.g. 0.95
	Achieved float64    // conservative coverage of Entries: sum(est-err)/total
	Entries  []HotEntry // descending by estimated packets
}

// HotEntries ranks route entries across clusters and cuts the list at the
// requested coverage target (the 95 in 95/5). Achieved uses the sketch's
// lower bounds, so it never overstates what the hot set carries.
//
// Targets are clamped to [0, 1]: target <= 0 asks for no coverage and
// returns an empty residency set (the controller's "evict everything"
// intent, not "everything is hot"), and targets above 1 behave as 1 —
// the full ranking.
func (t *Tracker) HotEntries(target float64) Residency {
	res := Residency{Target: target}
	if t == nil {
		return res
	}
	if target <= 0 || math.IsNaN(target) {
		res.Target = 0
		return res
	}
	if target > 1 {
		target = 1
		res.Target = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pkts == 0 {
		return res
	}
	var all []HotEntry
	for id, cs := range t.clusters {
		for _, c := range cs.routes.Top() {
			all = append(all, HotEntry{
				Cluster: id,
				VNI:     c.Key.VNI,
				DIP:     c.Key.DIP,
				Packets: c.Count,
				MaxErr:  c.Err,
				Share:   share(c.Count, t.pkts),
			})
		}
	}
	// Equal counts rank by (cluster, VNI, DIP) so the residency cut does not
	// depend on map iteration.
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.Packets != b.Packets {
			return a.Packets > b.Packets
		}
		if a.Cluster != b.Cluster {
			return a.Cluster < b.Cluster
		}
		if a.VNI != b.VNI {
			return a.VNI < b.VNI
		}
		return a.DIP.Less(b.DIP)
	})
	var sure uint64
	for _, e := range all {
		if res.Achieved >= target {
			break
		}
		res.Entries = append(res.Entries, e)
		sure += e.Packets - e.MaxErr
		res.Achieved = share(sure, t.pkts)
	}
	if res.Achieved > 1 {
		res.Achieved = 1
	}
	return res
}

// VNISkew is the water-level view of one tenant network: how much of the
// region's traffic it carries and how concentrated that traffic is on its
// tracked hot route entries.
type VNISkew struct {
	VNI      netpkt.VNI
	Packets  uint64
	Bytes    uint64
	Share    float64 // of all observed packets
	HotShare float64 // of this VNI's packets carried by tracked hot entries
}

// VNISkewSummary returns per-VNI totals with hot-entry concentration,
// biggest VNI first.
func (t *Tracker) VNISkewSummary() []VNISkew {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	hot := make(map[netpkt.VNI]uint64)
	for _, cs := range t.clusters {
		for _, c := range cs.routes.Top() {
			hot[c.Key.VNI] += c.Count - c.Err
		}
	}
	out := make([]VNISkew, 0, len(t.vnis))
	for _, vc := range t.vnis {
		s := VNISkew{
			VNI:      vc.vni,
			Packets:  vc.pkts,
			Bytes:    vc.bytes,
			Share:    share(vc.pkts, t.pkts),
			HotShare: share(hot[vc.vni], vc.pkts),
		}
		if s.HotShare > 1 {
			s.HotShare = 1
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].VNI < out[j].VNI
	})
	return out
}

func share(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}
