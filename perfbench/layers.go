package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sched"
)

// layer is one per-layer metric. Every traced run prints the whole
// catalog; a layer the workload does not run reads 0.
type layer struct {
	name, unit, better string
}

// layerCatalog lists the per-layer metrics in the order BENCHMARK.json
// lists them. README.md maps each to the end-to-end metric it moves.
func layerCatalog() []layer {
	var out []layer
	for _, exp := range experiments.Figures() {
		out = append(out, layer{"experiments." + exp.ID + "_s", "s", "lower"})
	}
	out = append(out,
		layer{"experiments.fig7_s", "s", "lower"},
		layer{"experiments.fig8_s", "s", "lower"},
		layer{"experiments.format_s", "s", "lower"},
		layer{"experiments.cells", "count", "higher"},

		layer{"serve.client_ms", "ms", "lower"},
		layer{"serve.handler_ms", "ms", "lower"},
		layer{"serve.core_ms", "ms", "lower"},
		layer{"patterns.apply_ms", "ms", "lower"},
		layer{"activity.scan_ms", "ms", "lower"},
		layer{"activity.walk_ms", "ms", "lower"},
		layer{"power.evaluate_ms", "ms", "lower"},
		layer{"serve.simulations", "count", "lower"},
		layer{"serve.cache.misses", "count", "lower"},

		layer{"cluster.router_ms", "ms", "lower"},
		layer{"cluster.hop_ms", "ms", "lower"},
		layer{"cluster.batch.subbatches", "count", "lower"},
		layer{"cluster.reroutes", "count", "lower"},
		layer{"cluster.retry.attempts", "count", "lower"},
		layer{"cluster.shard.errors", "count", "lower"},
		layer{"serve.cache.hits", "count", "higher"},
		layer{"serve.hit_ratio", "ratio", "higher"},
	)
	for _, p := range sched.Names() {
		out = append(out,
			layer{"fleet.replay_s." + p, "s", "lower"},
			layer{"fleet.engine_s." + p, "s", "lower"},
			layer{"sched.place_s." + p, "s", "lower"},
		)
	}
	out = append(out,
		layer{"sched.place_calls", "count", "lower"},
		layer{"fleet.oracle_resolve_s", "s", "lower"},
		layer{"fleet.oracle.lookups", "count", "lower"},
		layer{"fleet.oracle.distinct", "count", "lower"},

		layer{"trace.coverage", "ratio", "higher"},
	)
	return out
}

// layerMetrics renders a traced run's layer values as the full catalog.
func layerMetrics(values map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, l := range layerCatalog() {
		out[l.name] = metric{values[l.name], l.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("layer %q is not in the catalog", name)
		}
	}
	return out, nil
}
