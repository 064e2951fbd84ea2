package heavyhitter

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"

	"sailfish/internal/netpkt"
)

func ip(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

// hashString and hashUint64 are the test sketches' key hashes.
func hashString(s string) uint64 { return netpkt.HashBytes([]byte(s)) }
func hashUint64(v uint64) uint64 { return v }

func TestSpaceSavingExactWhenUnderK(t *testing.T) {
	s := NewSpaceSaving[string](16, hashString)
	counts := map[string]uint64{"a": 50, "b": 30, "c": 20, "d": 1}
	for k, n := range counts {
		for i := uint64(0); i < n; i++ {
			s.Observe(k, 1)
		}
	}
	top := s.Top()
	if len(top) != 4 {
		t.Fatalf("tracked %d keys, want 4", len(top))
	}
	for _, c := range top {
		if c.Err != 0 || c.Count != counts[c.Key] {
			t.Fatalf("under-K sketch must be exact: %+v want %d", c, counts[c.Key])
		}
	}
	if top[0].Key != "a" || top[1].Key != "b" {
		t.Fatalf("order: %+v", top)
	}
}

// The SpaceSaving invariants under eviction pressure: for every tracked key,
// estimate >= true count and estimate - err <= true count.
func TestSpaceSavingErrorBounds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	z := rand.NewZipf(r, 1.5, 1, 9999)
	s := NewSpaceSaving[uint64](64, hashUint64)
	exact := make(map[uint64]uint64)
	for i := 0; i < 200000; i++ {
		k := z.Uint64()
		exact[k]++
		s.Observe(k, 1)
	}
	if s.Len() != 64 {
		t.Fatalf("sketch holds %d, want k=64", s.Len())
	}
	for _, c := range s.Top() {
		truth := exact[c.Key]
		if c.Count < truth {
			t.Fatalf("key %d: estimate %d < true %d", c.Key, c.Count, truth)
		}
		if c.Count-c.Err > truth {
			t.Fatalf("key %d: lower bound %d > true %d", c.Key, c.Count-c.Err, truth)
		}
	}
}

// The ISSUE 4 acceptance check: on a Zipf-skewed workload HotEntries' top-K
// must match the exact offline top-K, and the reported hot set must cover
// >= 99.9% of traffic — the paper's 95/5 rule measured end to end.
func TestHotEntriesMatchOfflineTopK(t *testing.T) {
	const (
		streamLen = 500000
		keySpace  = 4000
		k         = 1024
	)
	r := rand.New(rand.NewSource(42))
	z := rand.NewZipf(r, 2.0, 1, keySpace-1)
	tr := NewTracker(k)
	exact := make(map[RouteKey]uint64)
	for i := 0; i < streamLen; i++ {
		key := int(z.Uint64())
		vni := netpkt.VNI(100 + key%8)
		dip := ip(key)
		flowHash := uint64(key)*2654435761 + 1 // one flow per entry is enough here
		tr.Observe(key%4, vni, flowHash, dip, 100)
		exact[RouteKey{VNI: vni, DIP: dip}]++
	}
	if got := tr.TotalPackets(); got != streamLen {
		t.Fatalf("TotalPackets = %d", got)
	}

	res := tr.HotEntries(0.999)
	if res.Achieved < 0.999 {
		t.Fatalf("hot set covers %.5f of traffic, want >= 0.999", res.Achieved)
	}

	// The true top 20 (by exact offline count) must all be reported, with
	// estimates inside the sketch's error bounds.
	type kc struct {
		key RouteKey
		n   uint64
	}
	var off []kc
	for key, n := range exact {
		off = append(off, kc{key, n})
	}
	sort.Slice(off, func(i, j int) bool { return off[i].n > off[j].n })
	reported := make(map[RouteKey]HotEntry, len(res.Entries))
	for _, e := range res.Entries {
		reported[RouteKey{VNI: e.VNI, DIP: e.DIP}] = e
	}
	for i := 0; i < 20 && i < len(off); i++ {
		e, ok := reported[off[i].key]
		if !ok {
			t.Fatalf("true top-%d entry %v (count %d) missing from HotEntries", i+1, off[i].key, off[i].n)
		}
		if e.Packets < off[i].n || e.Packets-e.MaxErr > off[i].n {
			t.Fatalf("entry %v: estimate %d (err %d) outside bounds for true %d",
				off[i].key, e.Packets, e.MaxErr, off[i].n)
		}
	}

	// Verify the coverage claim against exact counts, not just the sketch's
	// own lower bound.
	var covered uint64
	for _, e := range res.Entries {
		covered += exact[RouteKey{VNI: e.VNI, DIP: e.DIP}]
	}
	if frac := float64(covered) / streamLen; frac < 0.999 {
		t.Fatalf("exact coverage of reported hot set = %.5f, want >= 0.999", frac)
	}
}

func TestHotEntriesCutsAtTarget(t *testing.T) {
	tr := NewTracker(16)
	// 90 / 9 / 1 split across three entries.
	for i := 0; i < 90; i++ {
		tr.Observe(0, 1, 11, ip(1), 100)
	}
	for i := 0; i < 9; i++ {
		tr.Observe(0, 1, 22, ip(2), 100)
	}
	tr.Observe(0, 2, 33, ip(3), 100)
	res := tr.HotEntries(0.95)
	if len(res.Entries) != 2 {
		t.Fatalf("0.95 target should stop after two entries, got %d (%+v)", len(res.Entries), res)
	}
	if res.Entries[0].DIP != ip(1) || res.Entries[1].DIP != ip(2) {
		t.Fatalf("wrong ranking: %+v", res.Entries)
	}
	if res.Achieved < 0.99 || res.Achieved > 1 {
		t.Fatalf("achieved = %f", res.Achieved)
	}
	if got := tr.HotEntries(0).Entries; len(got) != 0 {
		t.Fatalf("target 0 means no residency — want empty set, got %d entries", len(got))
	}
}

// Degenerate coverage targets must not be interpreted as "everything is
// hot": <= 0 and NaN mean an empty residency set, > 1 clamps to the full
// ranking with Target reported as 1.
func TestHotEntriesTargetClamping(t *testing.T) {
	tr := NewTracker(16)
	for i := 0; i < 50; i++ {
		tr.Observe(0, 1, 11, ip(1), 100)
	}
	tr.Observe(0, 1, 22, ip(2), 100)
	if res := tr.HotEntries(-0.5); len(res.Entries) != 0 || res.Target != 0 {
		t.Fatalf("negative target: %+v", res)
	}
	if res := tr.HotEntries(math.NaN()); len(res.Entries) != 0 || res.Target != 0 {
		t.Fatalf("NaN target: %+v", res)
	}
	res := tr.HotEntries(7)
	if res.Target != 1 {
		t.Fatalf("target > 1 must clamp to 1, got %f", res.Target)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("clamped target 1 should return the full ranking, got %d", len(res.Entries))
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker(16)
	for i := 0; i < 10; i++ {
		tr.Observe(0, 1, 11, ip(1), 100)
	}
	if tr.TotalPackets() != 10 {
		t.Fatalf("TotalPackets = %d", tr.TotalPackets())
	}
	tr.Reset()
	if tr.TotalPackets() != 0 || len(tr.HotEntries(1).Entries) != 0 {
		t.Fatal("Reset did not clear the window")
	}
	// The tracker must keep working after a reset.
	tr.Observe(0, 2, 22, ip(2), 100)
	if res := tr.HotEntries(1); len(res.Entries) != 1 || res.Entries[0].VNI != 2 {
		t.Fatalf("post-reset observations lost: %+v", res)
	}
	var nilTr *Tracker
	nilTr.Reset() // must not panic
}

func TestTopFlowsAndSkew(t *testing.T) {
	tr := NewTracker(16)
	for i := 0; i < 70; i++ {
		tr.Observe(0, 100, 0xAAAA, ip(1), 150)
	}
	for i := 0; i < 30; i++ {
		tr.Observe(1, 200, 0xBBBB, ip(2), 50)
	}
	flows := tr.TopFlows(10)
	if len(flows) != 2 || flows[0].FlowHash != 0xAAAA || flows[0].Cluster != 0 {
		t.Fatalf("TopFlows: %+v", flows)
	}
	if flows[0].Packets != 70 || flows[0].Share != 0.7 {
		t.Fatalf("share math: %+v", flows[0])
	}
	if one := tr.TopFlows(1); len(one) != 1 {
		t.Fatalf("limit: %+v", one)
	}
	skew := tr.VNISkewSummary()
	if len(skew) != 2 || skew[0].VNI != 100 {
		t.Fatalf("skew: %+v", skew)
	}
	if skew[0].Packets != 70 || skew[0].Bytes != 70*150 || skew[0].Share != 0.7 {
		t.Fatalf("skew totals: %+v", skew[0])
	}
	if skew[0].HotShare != 1 {
		t.Fatalf("all of VNI 100 sits on a tracked entry: %+v", skew[0])
	}
	var nilTr *Tracker
	nilTr.Observe(0, 1, 2, ip(1), 10) // must not panic
	if nilTr.TopFlows(5) != nil || nilTr.VNISkewSummary() != nil || nilTr.TotalPackets() != 0 {
		t.Fatal("nil tracker must be inert")
	}
	if nilRes := nilTr.HotEntries(0.95); len(nilRes.Entries) != 0 {
		t.Fatal("nil tracker must report nothing")
	}
}

// Steady-state Observe — hot keys resident — must not allocate, since every
// lane feeds it from the fast path.
func TestObserveSteadyStateZeroAlloc(t *testing.T) {
	tr := NewTracker(8)
	keys := [4]netip.Addr{ip(1), ip(2), ip(3), ip(4)}
	for i := 0; i < 64; i++ {
		tr.Observe(0, 100, uint64(i%4+1), keys[i%4], 100)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Observe(0, 100, uint64(i%4+1), keys[i%4], 100)
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state Observe allocates %v/op, want 0", allocs)
	}
}

// Concurrent feeders and readers; meaningful under -race.
func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.HotEntries(0.95)
				tr.TopFlows(8)
				tr.VNISkewSummary()
			}
		}()
	}
	var feeders sync.WaitGroup
	for w := 0; w < 4; w++ {
		feeders.Add(1)
		go func(w int) {
			defer feeders.Done()
			r := rand.New(rand.NewSource(int64(w)))
			z := rand.NewZipf(r, 1.8, 1, 499)
			for i := 0; i < 20000; i++ {
				k := int(z.Uint64())
				tr.Observe(w%2, netpkt.VNI(100+k%4), uint64(k), ip(k), 100)
			}
		}(w)
	}
	feeders.Wait()
	close(stop)
	wg.Wait()
	if got := tr.TotalPackets(); got != 4*20000 {
		t.Fatalf("TotalPackets = %d, want %d", got, 4*20000)
	}
	if res := tr.HotEntries(0.95); res.Achieved < 0.5 || len(res.Entries) == 0 {
		t.Fatalf("implausible residency after load: %+v", res.Achieved)
	}
	_ = fmt.Sprintf("%v", tr.VNISkewSummary()[0])
}

// BenchmarkTrackerObserve is the per-packet feed the steering path pays
// when heavy-hitter telemetry is on.
func BenchmarkTrackerObserve(b *testing.B) {
	tr := NewTracker(1024)
	dip := ip(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(0, netpkt.VNI(100+i%8), uint64(i%4096), dip, 100)
	}
}

// refSpaceSaving is the map-indexed SpaceSaving this package shipped before
// the slot-indexed heap, kept verbatim in logic as the output oracle: the
// heap holds whole entries and every swap rewrites both keys' index cells.
type refSpaceSaving[K comparable] struct {
	k       int
	entries []refEntry[K]
	index   map[K]int
}

type refEntry[K comparable] struct {
	key        K
	count, err uint64
}

func newRefSpaceSaving[K comparable](k int) *refSpaceSaving[K] {
	return &refSpaceSaving[K]{k: k, index: make(map[K]int, k)}
}

func (s *refSpaceSaving[K]) Observe(key K, n uint64) {
	if i, ok := s.index[key]; ok {
		s.entries[i].count += n
		s.siftDown(i)
		return
	}
	if len(s.entries) < s.k {
		s.entries = append(s.entries, refEntry[K]{key: key, count: n})
		s.index[key] = len(s.entries) - 1
		s.siftUp(len(s.entries) - 1)
		return
	}
	min := &s.entries[0]
	delete(s.index, min.key)
	min.err = min.count
	min.count += n
	min.key = key
	s.index[key] = 0
	s.siftDown(0)
}

func (s *refSpaceSaving[K]) absorb(key K, count, err uint64) {
	if i, ok := s.index[key]; ok {
		s.entries[i].count += count
		s.entries[i].err += err
		s.siftDown(i)
		return
	}
	if len(s.entries) < s.k {
		s.entries = append(s.entries, refEntry[K]{key: key, count: count, err: err})
		s.index[key] = len(s.entries) - 1
		s.siftUp(len(s.entries) - 1)
		return
	}
	min := &s.entries[0]
	delete(s.index, min.key)
	min.err = min.count + err
	min.count += count
	min.key = key
	s.index[key] = 0
	s.siftDown(0)
}

func (s *refSpaceSaving[K]) Top() []Counted[K] {
	out := make([]Counted[K], len(s.entries))
	for i, e := range s.entries {
		out[i] = Counted[K]{Key: e.key, Count: e.count, Err: e.err}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

func (s *refSpaceSaving[K]) less(i, j int) bool { return s.entries[i].count < s.entries[j].count }

func (s *refSpaceSaving[K]) swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.index[s.entries[i].key] = i
	s.index[s.entries[j].key] = j
}

func (s *refSpaceSaving[K]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *refSpaceSaving[K]) siftDown(i int) {
	n := len(s.entries)
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

// heapOrder lists a sketch's entries in heap order, the order Top sorts
// from and Merge absorbs in.
func heapOrder[K comparable](s *SpaceSaving[K]) []Counted[K] {
	out := make([]Counted[K], 0, len(s.heap))
	for _, c := range s.heap {
		e := &s.slots[c.slot]
		out = append(out, Counted[K]{Key: e.key, Count: c.count, Err: e.err})
	}
	return out
}

func refHeapOrder[K comparable](s *refSpaceSaving[K]) []Counted[K] {
	out := make([]Counted[K], 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, Counted[K]{Key: e.key, Count: e.count, Err: e.err})
	}
	return out
}

// The slot-indexed heap must make exactly the map-indexed sketch's moves:
// identical heap order, and so identical Top with ties, throughout a Zipf
// stream under eviction pressure.
func TestSpaceSavingMatchesMapIndexedOracle(t *testing.T) {
	const k = 64
	r := rand.New(rand.NewSource(5))
	z := rand.NewZipf(r, 1.2, 1, 4999)
	got, want := NewSpaceSaving[uint64](k, hashUint64), newRefSpaceSaving[uint64](k)
	for i := 0; i < 60000; i++ {
		key, n := z.Uint64(), uint64(1+r.Intn(3))
		got.Observe(key, n)
		want.Observe(key, n)
		if i%997 == 0 && !reflect.DeepEqual(heapOrder(got), refHeapOrder(want)) {
			t.Fatalf("op %d: heap order diverged from the map-indexed oracle", i)
		}
	}
	if !reflect.DeepEqual(got.Top(), want.Top()) {
		t.Fatal("Top diverged from the map-indexed oracle")
	}
}

// Merge folds shard sketches in heap order: both merged sketches match the
// oracle fed the same shard streams and folded the same way.
func TestTrackerMergeMatchesOracle(t *testing.T) {
	const k = 32
	r := rand.New(rand.NewSource(9))
	z := rand.NewZipf(r, 1.3, 1, 999)
	trs := []*Tracker{NewTracker(k), NewTracker(k)}
	var routes [2]*refSpaceSaving[RouteKey]
	var flows [2]*refSpaceSaving[FlowKey]
	for i := range trs {
		routes[i], flows[i] = newRefSpaceSaving[RouteKey](k), newRefSpaceSaving[FlowKey](k)
	}
	for i := 0; i < 40000; i++ {
		key := int(z.Uint64())
		vni := netpkt.VNI(100 + key%4)
		trs[i%2].Observe(0, vni, uint64(key), ip(key), 100)
		routes[i%2].Observe(RouteKey{VNI: vni, DIP: ip(key)}, 1)
		flows[i%2].Observe(FlowKey{VNI: vni, Hash: uint64(key)}, 1)
	}
	wantRoutes, wantFlows := newRefSpaceSaving[RouteKey](k), newRefSpaceSaving[FlowKey](k)
	for i := range trs {
		for _, c := range refHeapOrder(routes[i]) {
			wantRoutes.absorb(c.Key, c.Count, c.Err)
		}
		for _, c := range refHeapOrder(flows[i]) {
			wantFlows.absorb(c.Key, c.Count, c.Err)
		}
	}
	m := Merge(k, trs...)
	if !reflect.DeepEqual(m.clusters[0].routes.Top(), wantRoutes.Top()) {
		t.Fatal("merged route sketch diverged from the oracle fold")
	}
	if !reflect.DeepEqual(m.clusters[0].flows.Top(), wantFlows.Top()) {
		t.Fatal("merged flow sketch diverged from the oracle fold")
	}
	if m.TotalPackets() != 40000 {
		t.Fatalf("merged TotalPackets = %d", m.TotalPackets())
	}
}

// Equal counts in different clusters must rank the same way on every call:
// by cluster, then VNI, then DIP or flow hash.
func TestRankingDeterministicAcrossClusters(t *testing.T) {
	tr := NewTracker(16)
	for c := 0; c < 6; c++ {
		for i := 0; i < 10; i++ {
			tr.Observe(c, netpkt.VNI(200-c), uint64(c+1), ip(c), 100)
			tr.Observe(c, netpkt.VNI(100), uint64(c+100), ip(c+50), 100)
		}
	}
	firstHot, firstFlows := tr.HotEntries(1).Entries, tr.TopFlows(0)
	for i := 0; i < 50; i++ {
		if !reflect.DeepEqual(tr.HotEntries(1).Entries, firstHot) {
			t.Fatal("HotEntries order changed between calls")
		}
		if !reflect.DeepEqual(tr.TopFlows(0), firstFlows) {
			t.Fatal("TopFlows order changed between calls")
		}
	}
	for i := 1; i < len(firstHot); i++ {
		a, b := firstHot[i-1], firstHot[i]
		if a.Cluster > b.Cluster || (a.Cluster == b.Cluster && a.VNI >= b.VNI) {
			t.Fatalf("tied entries out of (cluster, VNI) order: %+v before %+v", a, b)
		}
	}
}

// A reset tracker answers every exported method exactly as a fresh one fed
// the same stream, and re-warming it with the same key set allocates
// nothing.
func TestTrackerResetReusesStorage(t *testing.T) {
	feed := func(tr *Tracker, seed int64) {
		r := rand.New(rand.NewSource(seed))
		z := rand.NewZipf(r, 1.4, 1, 299)
		for i := 0; i < 5000; i++ {
			key := int(z.Uint64())
			tr.Observe(key%3, netpkt.VNI(100+key%5), uint64(key), ip(key), 64+key%100)
		}
	}
	reused, fresh := NewTracker(64), NewTracker(64)
	feed(reused, 1)
	reused.Reset()
	feed(reused, 2)
	feed(fresh, 2)
	if !reflect.DeepEqual(reused.TopFlows(0), fresh.TopFlows(0)) ||
		!reflect.DeepEqual(reused.HotEntries(0.99), fresh.HotEntries(0.99)) ||
		!reflect.DeepEqual(reused.VNISkewSummary(), fresh.VNISkewSummary()) ||
		reused.TotalPackets() != fresh.TotalPackets() ||
		!reflect.DeepEqual(Merge(64, reused).HotEntries(1), Merge(64, fresh).HotEntries(1)) {
		t.Fatal("reset tracker is distinguishable from a fresh one")
	}

	keys := [8]int{1, 2, 3, 5, 8, 13, 21, 34}
	rewarm := func() {
		reused.Reset()
		for _, k := range keys {
			reused.Observe(k%2, netpkt.VNI(100+k%3), uint64(k), ip(k), 100)
		}
	}
	rewarm()
	if allocs := testing.AllocsPerRun(100, rewarm); allocs != 0 {
		t.Fatalf("Reset plus re-warm allocates %v/op, want 0", allocs)
	}
	if reused.TotalPackets() != uint64(len(keys)) {
		t.Fatalf("TotalPackets after re-warm = %d", reused.TotalPackets())
	}
}

// BenchmarkTrackerObserveZipf feeds a skewed key stream over far more
// routes and flows than the sketch holds, so hits, sifts and evictions mix
// as they do on the packet path.
func BenchmarkTrackerObserveZipf(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	z := rand.NewZipf(r, 1.1, 1, 99_999)
	keys := make([]int, 1<<16)
	for i := range keys {
		keys[i] = int(z.Uint64())
	}
	tr := NewTracker(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		tr.Observe(k%4, netpkt.VNI(100+k%64), uint64(k)*0x9e3779b97f4a7c15, ip(k), 100)
	}
}

// tagHash returns a key hash whose index tag is exactly tag: tagOf
// multiplies by an odd constant, so multiplying tag<<32 by that constant's
// inverse mod 2^64 undoes it.
func tagHash(tag uint32) uint64 {
	const phi = 0x9e3779b97f4a7c15
	inv := uint64(phi)
	for i := 0; i < 5; i++ { // Newton: each step doubles the correct low bits
		inv *= 2 - phi*inv
	}
	return uint64(tag) << 32 * inv
}

// checkIndex asserts the slot index's invariants: it holds exactly the
// sketch's slots, every slot is found under its own tag, and every cell is
// reachable from its home cell through occupied cells (no probe-chain gap,
// the invariant back-shift deletion exists to keep).
func checkIndex[K comparable](t *testing.T, s *SpaceSaving[K]) (wrapped bool) {
	t.Helper()
	ix := &s.index
	occupied := 0
	for p, c := range ix.cells {
		if c == 0 {
			continue
		}
		occupied++
		home := uint32(c>>32) & ix.mask
		for q := home; q != uint32(p); q = (q + 1) & ix.mask {
			if ix.cells[q] == 0 {
				t.Fatalf("cell %d (home %d) is cut off from its home by an empty cell at %d", p, home, q)
			}
		}
		if uint32(p) < home {
			wrapped = true
		}
	}
	if occupied != ix.n || ix.n != len(s.slots) {
		t.Fatalf("index holds %d cells (n=%d) for %d slots", occupied, ix.n, len(s.slots))
	}
	for sl, e := range s.slots {
		if got := s.lookup(e.key, e.tag); got != int32(sl) {
			t.Fatalf("slot %d (key %v) found at %d", sl, e.key, got)
		}
	}
	return wrapped
}

// Every key homes on one of the index's last two cells or its first, so
// probe chains collide and wrap past the table's end; groups of four keys
// share a full tag, so lookups must fall through to the key comparison.
// Under a Zipf stream that evicts on most packets, the index keeps its
// invariants and the sketch stays move-for-move identical to the
// map-indexed oracle.
func TestSlotIndexCollisionsAndWrapUnderEviction(t *testing.T) {
	const k = 16
	homes := [3]uint32{30, 31, 0} // newSlotIndex(16) has 32 cells
	hash := func(key uint64) uint64 {
		g := uint32(key % 50)
		return tagHash(g<<5 | homes[g%3])
	}
	got, want := NewSpaceSaving[uint64](k, hash), newRefSpaceSaving[uint64](k)
	if len(got.index.cells) != 32 {
		t.Fatalf("index has %d cells, the test homes keys for 32", len(got.index.cells))
	}
	r := rand.New(rand.NewSource(11))
	z := rand.NewZipf(r, 1.1, 1, 199)
	wrapped := false
	for i := 0; i < 20000; i++ {
		key, n := z.Uint64(), uint64(1+r.Intn(2))
		got.Observe(key, n)
		want.Observe(key, n)
		if checkIndex(t, got) {
			wrapped = true
		}
		if !reflect.DeepEqual(heapOrder(got), refHeapOrder(want)) {
			t.Fatalf("op %d: heap order diverged from the map-indexed oracle", i)
		}
	}
	if !wrapped {
		t.Fatal("no probe chain wrapped past the table end; the test lost its point")
	}
	got.reset()
	if checkIndex(t, got); got.index.n != 0 {
		t.Fatal("reset left cells behind")
	}
}

// The per-VNI tally index grows past its initial table without losing a
// tenant.
func TestTrackerVNIIndexGrows(t *testing.T) {
	tr := NewTracker(8)
	initial := len(tr.vniIndex.cells)
	const vnis = 1000
	for round := 0; round < 2; round++ {
		for v := 0; v < vnis; v++ {
			tr.Observe(0, netpkt.VNI(v*7919), uint64(v), ip(v), 10)
		}
	}
	if len(tr.vniIndex.cells) <= initial {
		t.Fatalf("VNI index stayed at %d cells for %d tenants", initial, vnis)
	}
	sk := tr.VNISkewSummary()
	if len(sk) != vnis {
		t.Fatalf("%d tenants tallied, want %d", len(sk), vnis)
	}
	for _, s := range sk {
		if s.Packets != 2 || s.Bytes != 20 {
			t.Fatalf("tenant %v tallied %d pkts %d bytes, want 2/20", s.VNI, s.Packets, s.Bytes)
		}
	}
}
