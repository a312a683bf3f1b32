package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"bagconsistency/pkg/bagconsist"
)

var workloads = []string{acyclicCold, cyclicCold, hotRepeat}

// bodies renders every request of a plan, warm-up first, as the bytes
// bagclient sends.
func bodies(t *testing.T, p *plan) [][]byte {
	t.Helper()
	var out [][]byte
	for _, r := range append(append([]request(nil), p.warmup...), p.reqs...) {
		b, err := encodeBody(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestPlansAreSeeded(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			build := func(seed int64) [][]byte {
				p, err := buildPlan(w, seed, 0.2)
				if err != nil {
					t.Fatal(err)
				}
				return bodies(t, p)
			}
			a, b, c := build(7), build(7), build(8)
			if len(a) != len(b) {
				t.Fatalf("same seed, %d vs %d requests", len(a), len(b))
			}
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("same seed, request %d differs", i)
				}
			}
			differ := len(a) != len(c)
			for i := 0; !differ && i < len(a); i++ {
				differ = !bytes.Equal(a[i], c[i])
			}
			if !differ {
				t.Fatal("seeds 7 and 8 gave identical request lists")
			}
		})
	}
}

func TestHotVariantsShareTheirBaseFingerprint(t *testing.T) {
	p, err := buildPlan(hotRepeat, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := make(map[string]bool)
	for _, r := range p.warmup[:hotItems] {
		fp, err := bagconsist.FingerprintCollection(r.coll)
		if err != nil {
			t.Fatal(err)
		}
		base[fp] = true
	}
	seen := make(map[string]bool)
	for i, r := range p.reqs {
		fp, err := bagconsist.FingerprintCollection(r.coll)
		if err != nil {
			t.Fatal(err)
		}
		if !base[fp] {
			t.Fatalf("variant %d has fingerprint %s, not one of the hot set's", i, fp)
		}
		b, err := encodeBody(r)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("variant %d repeats an earlier request body", i)
		}
		seen[string(b)] = true
	}
}

func TestMidMean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{4}, 4},
		{[]float64{1, 3}, 2},
		{[]float64{9, 1, 2}, 2},        // one dropped at each end
		{[]float64{1, 2, 3, 100}, 2.5}, // one dropped at each end
		{[]float64{5, 1, 4, 2, 3, 6, 0, 100}, 3.5},
	} {
		if got := midMean(c.in); got != c.want {
			t.Errorf("midMean(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (e2e, layers []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

// TestQuickEndToEnd runs every workload, traced, against a real bagcd and
// requires the correctness gate and conservation checks to pass and every
// promised metric to be reported.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts bagcd")
	}
	e2e, layers := benchmarkMetrics(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "bagcd")
	if out, err := exec.Command("go", "build", "-o", bin, "bagconsistency/cmd/bagcd").CombinedOutput(); err != nil {
		t.Fatalf("building bagcd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep, err := run(context.Background(), config{
				workload: w, seed: 5, seconds: 0.5, trace: true,
				bin: bin, scratch: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 {
				t.Fatalf("correct=%v failed=%d checks=%v", rep.Result.Correct, rep.Result.Failed, rep.Checks)
			}
			for _, name := range e2e {
				if _, ok := rep.Untraced.Metrics[name]; !ok {
					t.Errorf("end-to-end metric %s missing", name)
				}
			}
			for _, name := range layers {
				if _, ok := rep.Result.Metrics[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			hit := rep.Result.Metrics["cache.hit_ratio"].Value
			if want := map[string]float64{hotRepeat: 1}[w]; hit != want {
				t.Errorf("cache.hit_ratio = %g, want %g", hit, want)
			}
		})
	}
}
