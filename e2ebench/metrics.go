package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists what a user of the router or the daemon sees; every run
// without tracing reports all of them (see README.md for definitions).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"route_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"score", "score"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
}

// perLayer lists the layer metrics of the traced run; every traced run
// reports all of them, 0 where the workload does not reach the layer.
var perLayer = []metricDef{
	{"maze.search_ms", "ms"},
	{"maze.searches", "count"},
	{"maze.expansions", "count"},
	{"maze.ns_per_expansion", "ns"},
	{"sched.graph_ms", "ms"},
	{"sched.graph_alloc_mb", "MB"},
	{"sched.conflict_edges", "count"},
	{"sched.batch_ms", "ms"},
	{"sched.batches", "count"},
	{"taskflow.run_ms", "ms"},
	{"taskflow.idle_frac", "frac"},
	{"route.commit_ms", "ms"},
	{"route.commits", "count"},
	{"route.uncommit_ms", "ms"},
	{"route.uncommits", "count"},
	{"route.scan_ms", "ms"},
	{"route.quality_ms", "ms"},
	{"route.quality_alloc_mb", "MB"},
	{"patterngpu.batch_ms", "ms"},
	{"patterngpu.calls", "count"},
	{"patterngpu.seq_ops", "count"},
	{"patterngpu.edges", "count"},
	{"patterngpu.hybrid_edges", "count"},
	{"patterngpu.alloc_mb", "MB"},
	{"stt.plan_ms", "ms"},
	{"stt.plan_alloc_mb", "MB"},
	{"grid.new_ms", "ms"},
	{"grid.warm_ms", "ms"},
	{"grid.warm_calls", "count"},
	{"core.plan_ms", "ms"},
	{"core.pattern_ms", "ms"},
	{"core.rrr_ms", "ms"},
	{"core.rrr_nets", "count"},
	{"core.rrr_fixed_frac", "frac"},
	{"core.shorts", "count"},
	{"shard.plan_ms", "ms"},
	{"shard.split_ms", "ms"},
	{"shard.leaves", "count"},
	{"shard.boundary_nets", "count"},
	{"guide.emit_ms", "ms"},
	{"guide.bytes", "bytes"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p90", "ms"},
	{"serve.status_ms", "ms"},
	{"serve.guide_fetch_ms", "ms"},
	{"serve.service_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.journal_bytes", "bytes"},
	{"bench.trace_overhead", "ratio"},
	{"bench.fail_frac", "frac"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics of a result from raw values: every definition is
// emitted with its unit, missing values as 0. A ratio whose operations all
// failed has no value either; it reads 0 too, and the result is incorrect.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

// medianMaps reduces per-pass metric maps to the per-key median.
func medianMaps(passes []map[string]float64) map[string]float64 {
	keys := map[string]bool{}
	for _, p := range passes {
		for k := range p {
			keys[k] = true
		}
	}
	out := map[string]float64{}
	for k := range keys {
		vs := make([]float64, 0, len(passes))
		for _, p := range passes {
			vs = append(vs, p[k])
		}
		out[k] = median(vs)
	}
	return out
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the linearly interpolated q-quantile of vs (0 when empty).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// totalAlloc reads the cumulative heap allocation through ReadMemStats,
// the exact figure; it stops the world, so it brackets whole passes only.
func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

// allocBytes reads the cumulative heap allocation without stopping the
// world, for brackets around single layer calls inside a pass.
func allocBytes() uint64 {
	s := [1]rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s[:])
	return s[0].Value.Uint64()
}
