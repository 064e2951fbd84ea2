package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// buildGateway compiles the daemon for the wire workload.
func buildGateway(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build sailfish-gw")
	}
	bin := filepath.Join(t.TempDir(), "sailfish-gw")
	cmd := exec.Command(goBin, "build", "-o", bin, "sailfish/cmd/sailfish-gw")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build sailfish-gw: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload tiny, untraced
// and traced, and checks the result carries exactly the metrics
// BENCHMARK.json names, with their units, and passes its output checks.
// It runs every workload, not only those BENCHMARK.json lists.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		if !slices.Contains(allWorkloads, wl.Name) {
			t.Errorf("BENCHMARK.json lists %s, which the benchmark cannot run", wl.Name)
		}
	}
	gw := buildGateway(t)
	for _, name := range allWorkloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 0.5, trace: traced, tiny: true,
				gwBin: gw, outDir: t.TempDir()}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, rep.res.Correct, rep.res.Attempted, rep.res.Failed, rep.errors)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(rep.res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestRepeatedSeedRepeatsShares checks that the modelled tier shares of
// the hardware-placed workload repeat exactly for a seed.
func TestRepeatedSeedRepeatsShares(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload twice")
	}
	var first map[string]metric
	for i := 0; i < 2; i++ {
		rep, err := run(options{workload: "tenant-mix", seed: 9, seconds: 0.2, tiny: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep.res.Metrics
			continue
		}
		for _, k := range []string{"hw_share", "stack_coverage"} {
			if rep.res.Metrics[k] != first[k] {
				t.Errorf("%s: %v then %v for the same seed", k, first[k], rep.res.Metrics[k])
			}
		}
	}
}
