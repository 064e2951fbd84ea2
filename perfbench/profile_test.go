package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.recvfrom", "net.(*UDPConn).ReadFromUDP", "main.(*server).serve"}, classSyscall},
		// The outermost layer wins: a parse inside the gateway is gateway time.
		{[]string{"sailfish/internal/netpkt.(*Parser).Parse", "sailfish/internal/xgwh.(*Gateway).ProcessPacket", "main.(*server).handle"}, classXGWH},
		{[]string{"sailfish/internal/netpkt.ParseFront", "main.(*server).handle"}, classNetpkt},
		{[]string{"runtime.mallocgc", "sailfish/internal/heavyhitter.(*Tracker).Observe", "sailfish/internal/cluster.(*Lane).Process"}, classHeavyHitter},
		{[]string{"sailfish/internal/snat.(*Store).Translate", "sailfish/internal/xgw86.(*Node).ProcessFallback"}, classX86},
		{[]string{"runtime.memmove", "main.vxlanPayload", "main.(*server).handle"}, classShell},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, classRuntime},
		{[]string{"sailfish/internal/cluster.(*Lane).deliver", "main.(*world).runPeriod"}, classOther},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestProfileSharesDecodesARealProfile decodes a CPU profile of this test
// process: the shares must sum to one and the busy loop, which lives in
// the test binary's main package, must land outside every layer.
func TestProfileSharesDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, samples, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no samples decoded")
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	if shares[classOther] < 0.5 {
		t.Fatalf("busy loop not attributed to other: %v", shares)
	}
}

var spinSink uint64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 10000; i++ {
			spinSink = spinSink*6364136223846793005 + 1
		}
	}
}
