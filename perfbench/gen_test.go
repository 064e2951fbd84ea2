package main

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"sailfish/internal/netpkt"
)

// streamDigest hashes the first n packets of a stream in send order.
func streamDigest(t *testing.T, cfg StreamConfig, seed int64, n int) [32]byte {
	t.Helper()
	st, err := GenerateStream(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		h.Write(st.Packet(st.FlowAt(i)))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, snat := range []bool{false, true} {
		cfg := tinyStream(snat)
		a := streamDigest(t, cfg, 42, cfg.Length)
		b := streamDigest(t, cfg, 42, cfg.Length)
		if a != b {
			t.Fatalf("snat=%v: seed 42 produced two different packet streams", snat)
		}
		if c := streamDigest(t, cfg, 43, cfg.Length); c == a {
			t.Fatalf("snat=%v: seeds 42 and 43 produced the same packet stream", snat)
		}
	}
}

func TestStreamShape(t *testing.T) {
	cfg := tinyStream(true)
	st, err := GenerateStream(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	var tail, internet int
	for i := 0; i < st.Len(); i++ {
		f := st.FlowAt(i)
		fl := st.Flows[f]
		var fm netpkt.FrontMeta
		if err := netpkt.ParseFront(st.Packet(f), &fm); err != nil {
			t.Fatalf("packet %d does not parse: %v", i, err)
		}
		if fm.VNI != fl.VNI || fm.Flow.Dst != fl.Dst {
			t.Fatalf("packet %d carries VNI %v dst %v, flow says %v %v", i, fm.VNI, fm.Flow.Dst, fl.VNI, fl.Dst)
		}
		if fl.DstVM == st.Pop.TailVM() {
			tail++
		}
		if fl.Kind == kindInternet {
			internet++
			if !st.Pop.SNAT(fl.Tenant) || fl.VNI != st.Pop.ServiceVNI(fl.Tenant) {
				t.Fatalf("Internet-bound flow %d of tenant %d is not on its service VNI", f, fl.Tenant)
			}
		}
	}
	if share := float64(tail) / float64(st.Len()); share < cfg.TailShare/3 || share > cfg.TailShare*3 {
		t.Errorf("tail share %.5f, configured %.5f", share, cfg.TailShare)
	}
	if internet == 0 {
		t.Error("no Internet-bound packets with SNAT tenants enabled")
	}
	// The payload carries the flow index and re-derivable filler.
	f := st.FlowAt(0)
	pkt := st.Packet(f)
	want := make([]byte, cfg.PayloadLen)
	fillPayload(want, 7, f)
	if got := pkt[st.payloadAt[f]:]; !bytes.Equal(got, want) {
		t.Errorf("payload of flow %d = %x, want %x", f, got, want)
	}
}
