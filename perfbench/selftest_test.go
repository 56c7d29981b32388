package main

// Self-test of the benchmark: layer counts repeat exactly for one seed,
// traced and untraced runs produce the same outputs, another seed
// produces other outputs that pass every check, and BENCHMARK.json
// lists exactly the metrics this program prints. Run it from this
// directory with `go test`.

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// countLayers are the per-layer counts and ratios that must repeat
// exactly across runs of one seed.
var countLayers = []string{
	"experiments.cells",
	"serve.simulations", "serve.cache.misses", "serve.cache.hits", "serve.hit_ratio",
	"cluster.batch.subbatches", "cluster.reroutes", "cluster.retry.attempts", "cluster.shard.errors",
	"fleet.oracle.lookups", "fleet.oracle.distinct", "sched.place_calls",
}

func mustRun(t *testing.T, name string, opts options) *report {
	t.Helper()
	r, err := workloads[name](opts)
	if err != nil {
		t.Fatalf("%s %+v: %v", name, opts, err)
	}
	if len(r.problems) > 0 || r.failed > 0 || r.attempted == 0 {
		t.Fatalf("%s %+v: %d failed of %d, problems %q", name, opts, r.failed, r.attempted, r.problems)
	}
	return r
}

func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a := mustRun(t, name, options{seed: 1, seconds: 2, trace: true})
			b := mustRun(t, name, options{seed: 1, seconds: 2, trace: true})
			plain := mustRun(t, name, options{seed: 1, seconds: 2})
			other := mustRun(t, name, options{seed: 2, seconds: 2, trace: true})

			for _, l := range countLayers {
				if a.layers[l] != b.layers[l] {
					t.Errorf("%s: %v then %v for one seed", l, a.layers[l], b.layers[l])
				}
			}
			if a.digest != b.digest || a.digest != plain.digest {
				t.Errorf("outputs differ: traced %s, traced again %s, untraced %s", a.digest, b.digest, plain.digest)
			}
			if other.digest == a.digest {
				t.Errorf("seeds 1 and 2 produced the same outputs %s", a.digest)
			}
			if c := a.layers["trace.coverage"]; c < 0.9 {
				t.Errorf("layer self times cover %.3f of the end-to-end time, want >= 0.9", c)
			}
			if _, err := layerMetrics(a.layers); err != nil {
				t.Error(err)
			}
			traced, untraced := endToEnd(a), endToEnd(plain)
			for _, m := range []string{"pass_cpu_s", "items_per_cpu_s", "p50_cpu_ms", "p99_cpu_ms"} {
				t.Logf("tracing overhead %s: traced %.4g, untraced %.4g %s",
					m, traced[m].Value, untraced[m].Value, traced[m].Unit)
			}
		})
	}
}

// benchmarkFile mirrors the keys of BENCHMARK.json this program must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}
	e2e := endToEnd(&report{busyS: 1})
	if len(bf.EndToEnd) != len(e2e) {
		t.Errorf("%d end_to_end metrics, program prints %d", len(bf.EndToEnd), len(e2e))
	}
	for _, m := range bf.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %s %s: program prints %+v", m.Name, m.Unit, got)
		}
	}
	cat := layerCatalog()
	if len(bf.PerLayer) != len(cat) {
		t.Fatalf("%d per_layer metrics, catalog has %d", len(bf.PerLayer), len(cat))
	}
	for i, l := range cat {
		if p := bf.PerLayer[i]; p.Name != l.name || p.Unit != l.unit || p.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, catalog has %+v", i, p, l)
		}
	}
}
