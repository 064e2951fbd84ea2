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
	"encoding/binary"
	"math"
	"net/netip"
	"sort"
	"sync"

	"sailfish/internal/netpkt"
)

// ssSlot is one monitored key in a SpaceSaving sketch. A slot never moves
// once assigned; its count lives in its heap cell and its heap position in
// the sketch's dense pos array.
type ssSlot[K comparable] struct {
	key K
	err uint64 // max overestimation carried in from the evicted entry
	tag uint32 // the key's index tag, kept so eviction can unindex it
}

// ssCell is one min-heap cell: a slot's estimated count (an overestimate)
// next to the slot number, so a sift compares and moves cells without
// touching the slots.
type ssCell struct {
	count uint64
	slot  int32
}

// SpaceSaving is a top-K frequency sketch over keys of type K. Keys live in
// stable slots found through an open-addressed, tag-filtered index; the
// min-heap holds (count, slot) cells and pos maps each slot to its heap
// position. The index is written only when a key enters or leaves the
// sketch. Not concurrency-safe; Tracker provides locking.
type SpaceSaving[K comparable] struct {
	k     int
	hash  func(K) uint64
	slots []ssSlot[K]
	pos   []int32  // slot -> heap position
	heap  []ssCell // min-heap ordered by count
	index slotIndex
}

// NewSpaceSaving builds a sketch tracking at most k keys. hash spreads keys
// over the index; any function whose equal keys hash equal works, and a
// well-mixed one keeps probe chains short.
func NewSpaceSaving[K comparable](k int, hash func(K) uint64) *SpaceSaving[K] {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving[K]{k: k, hash: hash, index: newSlotIndex(k)}
}

// Observe adds n occurrences of key. If the key is untracked and the sketch
// is full, the minimum entry is evicted and its count becomes the new
// entry's error bound — the SpaceSaving recycle step. Once the working set
// of hot keys is resident this path performs no allocation.
func (s *SpaceSaving[K]) Observe(key K, n uint64) {
	s.absorb(key, tagOf(s.hash(key)), n, 0)
}

// absorb adds count occurrences of key (whose index tag is tag) carrying
// err of overestimation: the key's own error bound on a hit, and on a
// newcomer that evicts the minimum, err plus the evicted count. Observe is
// absorb with no error; the Tracker feeds it precomputed tags, and merging
// folds other sketches' exported entries in with their stored tags.
func (s *SpaceSaving[K]) absorb(key K, tag uint32, count, err uint64) {
	if sl := s.lookup(key, tag); sl >= 0 {
		i := s.pos[sl]
		s.heap[i].count += count
		if err != 0 {
			s.slots[sl].err += err
		}
		s.siftDown(int(i))
		return
	}
	if len(s.slots) < s.k {
		sl := int32(len(s.slots))
		s.slots = append(s.slots, ssSlot[K]{key: key, err: err, tag: tag})
		s.pos = append(s.pos, int32(len(s.heap)))
		s.heap = append(s.heap, ssCell{count: count, slot: sl})
		s.index.insert(tag, sl)
		s.siftUp(len(s.heap) - 1)
		return
	}
	// Evict the minimum: the newcomer inherits its counter, and that old
	// count becomes the bound on how much we may now be overestimating.
	c := &s.heap[0]
	e := &s.slots[c.slot]
	s.index.remove(e.tag, c.slot)
	e.err = c.count + err
	c.count += count
	e.key, e.tag = key, tag
	s.index.insert(tag, c.slot)
	s.siftDown(0)
}

// lookup returns key's slot, or -1 when the sketch does not track it. Only
// cells whose tag matches cost a key comparison.
func (s *SpaceSaving[K]) lookup(key K, tag uint32) int32 {
	ix := &s.index
	for i := tag & ix.mask; ; i = (i + 1) & ix.mask {
		c := ix.cells[i]
		if c == 0 {
			return -1
		}
		if uint32(c>>32) == tag {
			if sl := int32(uint32(c)) - 1; s.slots[sl].key == key {
				return sl
			}
		}
	}
}

// reset empties the sketch in place, keeping its storage for the next
// window.
func (s *SpaceSaving[K]) reset() {
	s.index.reset()
	s.slots = s.slots[:0]
	s.pos = s.pos[:0]
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
	for i, c := range s.heap {
		e := &s.slots[c.slot]
		out[i] = Counted[K]{Key: e.key, Count: c.count, Err: e.err}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// Len reports how many keys the sketch currently tracks.
func (s *SpaceSaving[K]) Len() int { return len(s.heap) }

// siftUp and siftDown carry the moving cell in hand and shift the cells it
// passes, which leaves the heap exactly as the swap-per-step sift would.
func (s *SpaceSaving[K]) siftUp(i int) {
	h := s.heap
	c := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if c.count >= h[parent].count {
			break
		}
		h[i] = h[parent]
		s.pos[h[i].slot] = int32(i)
		i = parent
	}
	h[i] = c
	s.pos[c.slot] = int32(i)
}

func (s *SpaceSaving[K]) siftDown(i int) {
	h := s.heap
	n := len(h)
	c := h[i]
	for {
		least, min := i, c.count
		if l := 2*i + 1; l < n && h[l].count < min {
			least, min = l, h[l].count
		}
		if r := 2*i + 2; r < n && h[r].count < min {
			least = r
		}
		if least == i {
			break
		}
		h[i] = h[least]
		s.pos[h[i].slot] = int32(i)
		i = least
	}
	h[i] = c
	s.pos[c.slot] = int32(i)
}

// slotIndex is an open-addressed hash index from a key's tag to the slot
// holding the key: linear probing over a power-of-two table whose cells
// pack the 32-bit tag (high half) with slot+1 (low half; 0 marks an empty
// cell). The tag's low bits pick the home cell and the rest filter probes,
// so a lookup compares keys only on a full tag match. Deletion shifts the
// rest of the probe chain back instead of leaving tombstones, so a sketch
// evicting on every packet never degrades its chains.
type slotIndex struct {
	cells []uint64
	mask  uint32
	n     int
}

// newSlotIndex sizes an index for n keys at a load factor of at most 1/2.
func newSlotIndex(n int) slotIndex {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return slotIndex{cells: make([]uint64, size), mask: uint32(size - 1)}
}

// tagOf folds a key hash into its index tag: Fibonacci hashing, whose high
// bits depend on every bit of h.
func tagOf(h uint64) uint32 { return uint32((h * 0x9e3779b97f4a7c15) >> 32) }

// insert indexes slot under tag. The caller guarantees the key is absent.
func (ix *slotIndex) insert(tag uint32, slot int32) {
	i := tag & ix.mask
	for ix.cells[i] != 0 {
		i = (i + 1) & ix.mask
	}
	ix.cells[i] = uint64(tag)<<32 | uint64(slot+1)
	ix.n++
}

// remove unindexes slot (indexed under tag) and back-shifts every later
// cell of its probe chain that may move into the hole.
func (ix *slotIndex) remove(tag uint32, slot int32) {
	want := uint64(tag)<<32 | uint64(slot+1)
	i := tag & ix.mask
	for ix.cells[i] != want {
		i = (i + 1) & ix.mask
	}
	for j := i; ; {
		j = (j + 1) & ix.mask
		c := ix.cells[j]
		if c == 0 {
			break
		}
		// c may fill the hole at i when i lies on c's probe path, that is
		// when i is no nearer to j than c's home cell is.
		if home := uint32(c>>32) & ix.mask; (j-home)&ix.mask >= (j-i)&ix.mask {
			ix.cells[i] = c
			i = j
		}
	}
	ix.cells[i] = 0
	ix.n--
}

// grow doubles the table when it passes half full; tags carry their home
// cells, so rehashing needs no keys.
func (ix *slotIndex) grow() {
	if 2*(ix.n+1) <= len(ix.cells) {
		return
	}
	old := ix.cells
	*ix = slotIndex{cells: make([]uint64, 2*len(old)), mask: uint32(2*len(old) - 1)}
	for _, c := range old {
		if c != 0 {
			ix.insert(uint32(c>>32), int32(uint32(c))-1)
		}
	}
}

// reset empties the index in place.
func (ix *slotIndex) reset() {
	clear(ix.cells)
	ix.n = 0
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

// flowKeyHash and routeKeyHash are the sketches' key hashes. The flow key
// already carries a flow hash, so one multiply folds the VNI in; the route
// key mixes the VNI with the destination's 128 address bits.
func flowKeyHash(vni netpkt.VNI, flowHash uint64) uint64 {
	return flowHash ^ uint64(vni)*0xc4ceb9fe1a85ec53
}

func routeKeyHash(vni netpkt.VNI, dip netip.Addr) uint64 {
	a := dip.As16()
	h := binary.BigEndian.Uint64(a[8:])*0xff51afd7ed558ccd ^ binary.BigEndian.Uint64(a[:8])
	h = (h ^ uint64(vni)) * 0xc4ceb9fe1a85ec53
	return h ^ h>>29
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
// and, in steady state, allocates nothing and probes no Go map: cluster
// sketches sit in a slice indexed by cluster id, and the sketch keys and
// VNI tallies are found through tag-filtered slot indexes.
type Tracker struct {
	mu sync.Mutex
	k  int
	// clusters is indexed by cluster id (the region's small non-negative
	// cluster indices); nil where a cluster has seen no traffic.
	clusters []*clusterSketch
	vniIndex slotIndex // VNI tag -> slot in vnis
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
	return &Tracker{k: k, vniIndex: newSlotIndex(32)}
}

// cluster returns cluster id's sketch, creating it on first use.
func (t *Tracker) cluster(id int) *clusterSketch {
	if id < len(t.clusters) {
		if cs := t.clusters[id]; cs != nil {
			return cs
		}
	} else {
		t.clusters = append(t.clusters, make([]*clusterSketch, id+1-len(t.clusters))...)
	}
	cs := &clusterSketch{
		flows:  NewSpaceSaving(t.k, func(k FlowKey) uint64 { return flowKeyHash(k.VNI, k.Hash) }),
		routes: NewSpaceSaving(t.k, func(k RouteKey) uint64 { return routeKeyHash(k.VNI, k.DIP) }),
	}
	t.clusters[id] = cs
	return cs
}

// vni returns vni's tally, creating it on first use.
func (t *Tracker) vni(vni netpkt.VNI) *vniCount {
	tag := tagOf(uint64(vni))
	ix := &t.vniIndex
	for i := tag & ix.mask; ; i = (i + 1) & ix.mask {
		c := ix.cells[i]
		if c == 0 {
			break
		}
		if uint32(c>>32) == tag {
			if sl := int32(uint32(c)) - 1; t.vnis[sl].vni == vni {
				return &t.vnis[sl]
			}
		}
	}
	ix.grow()
	ix.insert(tag, int32(len(t.vnis)))
	t.vnis = append(t.vnis, vniCount{vni: vni})
	return &t.vnis[len(t.vnis)-1]
}

// Observe records one steered packet: which cluster it went to (the
// region's non-negative cluster index), its tenant network, flow hash,
// inner destination and wire length. Both key hashes are computed before
// the lock is taken.
func (t *Tracker) Observe(cluster int, vni netpkt.VNI, flowHash uint64, dip netip.Addr, wireLen int) {
	if t == nil {
		return
	}
	flowTag, routeTag := tagOf(flowKeyHash(vni, flowHash)), tagOf(routeKeyHash(vni, dip))
	t.mu.Lock()
	cs := t.cluster(cluster)
	cs.flows.absorb(FlowKey{VNI: vni, Hash: flowHash}, flowTag, 1, 0)
	cs.routes.absorb(RouteKey{VNI: vni, DIP: dip}, routeTag, 1, 0)
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
			if cs == nil {
				continue
			}
			mc := m.cluster(id)
			// Entries fold in heap order.
			for _, c := range cs.flows.heap {
				e := &cs.flows.slots[c.slot]
				mc.flows.absorb(e.key, e.tag, c.count, e.err)
			}
			for _, c := range cs.routes.heap {
				e := &cs.routes.slots[c.slot]
				mc.routes.absorb(e.key, e.tag, c.count, e.err)
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
		if cs != nil {
			cs.flows.reset()
			cs.routes.reset()
		}
	}
	t.vniIndex.reset()
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
		if cs == nil {
			continue
		}
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
		if cs == nil {
			continue
		}
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
		if cs == nil {
			continue
		}
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
