package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/dr"
	"fastgr/internal/geom"
	"fastgr/internal/guide"
	"fastgr/internal/obs"
	"fastgr/internal/shard"
)

// designSpec names one generated benchmark design.
type designSpec struct {
	Name  string
	Scale float64
}

// makeDesign generates a design and relabels its nets for the seed.
func makeDesign(ds designSpec, seed int64) (*design.Design, error) {
	d, err := design.Generate(ds.Name, ds.Scale)
	if err != nil {
		return nil, err
	}
	relabel(d, seed)
	return d, nil
}

// relabel gives the nets new IDs from a permutation drawn from seed and
// lists them in ID order; seed 0 keeps the generated order. Pins, grid and
// names are untouched, so every seed is the same placement seen in another
// net order: ties in net ordering, batch composition and conflict-graph
// orientation change, the congestion the design presents does not.
func relabel(d *design.Design, seed int64) {
	if seed == 0 {
		return
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(d.Nets))
	for i, n := range d.Nets {
		n.ID = perm[i]
	}
	sort.Slice(d.Nets, func(i, j int) bool { return d.Nets[i].ID < d.Nets[j].ID })
}

// routeOptions are the fastgr CLI's options for a generated design at this
// scale (including its scaled selection thresholds), with the benchmark's
// executor width, shard count and live-heap sampling.
func routeOptions(w *workload, scale float64) core.Options {
	opt := core.DefaultOptions(w.Variant)
	opt.ExecWorkers = execWorkers
	opt.Shards = w.Shards
	opt.HeapGC = true
	opt.T1 = scaleThreshold(100, scale)
	opt.T2 = scaleThreshold(500, scale)
	return opt
}

// scaleThreshold is the CLI's scaling of a full-size selection threshold.
func scaleThreshold(full int, scale float64) int {
	v := int(float64(full)*math.Sqrt(scale) + 0.5)
	if v < 2 {
		v = 2
	}
	return v
}

// routed is one design routed and its guides emitted.
type routed struct {
	res    *core.Result
	guides []guide.Guide
	text   []byte
	wall   time.Duration // core.Route plus guide emission
	alloc  uint64        // bytes allocated in those two steps
}

// routeDesign is one timed operation: core.Route, then guide.FromResult
// and guide.Write.
func routeDesign(d *design.Design, opt core.Options) (*routed, error) {
	a := totalAlloc()
	start := time.Now()
	res, err := core.Route(d, opt)
	if err != nil {
		return nil, err
	}
	r := &routed{res: res}
	r.guides, r.text, err = emitGuides(res)
	r.wall = time.Since(start)
	r.alloc = totalAlloc() - a
	return r, err
}

func emitGuides(res *core.Result) ([]guide.Guide, []byte, error) {
	gs := guide.FromResult(res)
	var buf bytes.Buffer
	if err := guide.Write(&buf, gs); err != nil {
		return nil, nil, err
	}
	return gs, buf.Bytes(), nil
}

// checkRouted verifies one routed design: every net has a route that
// reaches all of its pins, the guides cover every route, and the routes
// are well-formed for detailed routing.
func checkRouted(res *core.Result, guides []guide.Guide) error {
	if len(guides) != len(res.Design.Nets) {
		return fmt.Errorf("%s: %d guides for %d nets", res.Design.Name, len(guides), len(res.Design.Nets))
	}
	for _, n := range res.Design.Nets {
		rt := res.Routes[n.ID]
		if rt == nil {
			return fmt.Errorf("%s: net %s has no route", res.Design.Name, n.Name)
		}
		pins := make([]geom.Point3, len(n.Pins))
		for i, p := range n.Pins {
			pins[i] = geom.Point3{X: p.Pos.X, Y: p.Pos.Y, Layer: p.Layer}
		}
		if err := rt.Validate(res.Grid, pins); err != nil {
			return fmt.Errorf("%s: net %s: %w", res.Design.Name, n.Name, err)
		}
	}
	if err := guide.Covers(res, guides); err != nil {
		return fmt.Errorf("%s: %w", res.Design.Name, err)
	}
	if err := dr.ValidateRoutes(res.Grid, res.Routes); err != nil {
		return fmt.Errorf("%s: %w", res.Design.Name, err)
	}
	return nil
}

// routingSetup generates the workload's designs cfg.setups times and
// returns the last set with the time each generation took.
func routingSetup(w *workload, cfg config) ([]*design.Design, []float64, error) {
	var ds []*design.Design
	var times []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		ds = ds[:0]
		for _, spec := range w.Designs {
			d, err := makeDesign(spec, cfg.seed)
			if err != nil {
				return nil, nil, err
			}
			ds = append(ds, d)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return ds, times, nil
}

// reference is the first outcome of one design in a run; every later
// routing of the design must reproduce it.
type reference struct {
	rep  core.Report
	text []byte
}

// sameOutcome compares a routing against the design's reference: score
// and shorts always, the guides byte for byte.
func sameOutcome(ref *reference, rep core.Report, text []byte) error {
	if rep.Score != ref.rep.Score || rep.Quality.Shorts != ref.rep.Quality.Shorts {
		return fmt.Errorf("%s: score %.1f shorts %d, earlier %.1f shorts %d",
			rep.Design, rep.Score, rep.Quality.Shorts, ref.rep.Score, ref.rep.Quality.Shorts)
	}
	if !bytes.Equal(text, ref.text) {
		return fmt.Errorf("%s: guides differ from the first routing", rep.Design)
	}
	return nil
}

// sameReplay is the replay-equality guard: the traced replay must
// reproduce core.Route's quality, rip-up count and every iteration's
// nets, expansions and conflict edges, or its layer numbers mean nothing.
func sameReplay(ref core.Report, got core.Report) error {
	if got.Quality != ref.Quality || got.NetsToRipup != ref.NetsToRipup || len(got.RRR) != len(ref.RRR) ||
		got.PatternBatches != ref.PatternBatches || got.PatternSeqOps != ref.PatternSeqOps ||
		got.TotalEdges != ref.TotalEdges || got.HybridEdges != ref.HybridEdges {
		return fmt.Errorf("%s: replay %+v ripup %d iters %d, core.Route %+v ripup %d iters %d",
			ref.Design, got.Quality, got.NetsToRipup, len(got.RRR), ref.Quality, ref.NetsToRipup, len(ref.RRR))
	}
	for i := range ref.RRR {
		a, b := got.RRR[i], ref.RRR[i]
		if a.Nets != b.Nets || a.Expansions != b.Expansions || a.ConflictEdges != b.ConflictEdges || a.Quality != b.Quality {
			return fmt.Errorf("%s: replay iteration %d nets %d expansions %d, core.Route nets %d expansions %d",
				ref.Design, i, a.Nets, a.Expansions, b.Nets, b.Expansions)
		}
	}
	return nil
}

// runRouting measures a routing workload without tracing: passes over
// every design until the window is used, at least minPasses of them. Each
// metric is taken per pass; the run reports the median over passes.
func runRouting(w *workload, cfg config, tl *tally) (map[string]float64, error) {
	designs, setup, err := routingSetup(w, cfg)
	if err != nil {
		return nil, err
	}
	refs := make([]*reference, len(designs))
	var passes []map[string]float64
	start := time.Now()
	var last time.Duration
	for pass := 0; keepGoing(pass, minPasses, time.Since(start), last, cfg.window); pass++ {
		passStart := time.Now()
		p := routePass(w, designs, refs, tl)
		passes = append(passes, passMetrics(p.wall, p.alloc, p.peak, p.score, p.lat))
		last = time.Since(passStart)
		fmt.Fprintf(os.Stderr, "pass %d: %.3f s routed, %.1f MB allocated\n", pass, p.wall.Seconds(), mb(p.alloc))
	}
	out := medianMaps(passes)
	out["setup_s"] = median(setup)
	return out, nil
}

// passOut is what one untraced pass measured.
type passOut struct {
	wall  time.Duration
	alloc uint64
	peak  uint64
	score float64
	lat   []float64 // per design routed, ms
}

// routePass routes every design once, untraced, and checks each outcome
// against the design's first routing in the run (recording it on the
// first pass).
func routePass(w *workload, designs []*design.Design, refs []*reference, tl *tally) passOut {
	runtime.GC()
	var p passOut
	for i, d := range designs {
		r, err := routeDesign(d, routeOptions(w, w.Designs[i].Scale))
		if err == nil {
			p.wall += r.wall
			p.alloc += r.alloc
			p.lat = append(p.lat, ms(r.wall))
			p.peak = max(p.peak, r.res.Report.PeakHeapBytes)
			p.score += r.res.Report.Score
			err = checkRouted(r.res, r.guides)
		}
		if err == nil {
			if refs[i] == nil {
				refs[i] = &reference{rep: r.res.Report, text: r.text}
			}
			err = sameOutcome(refs[i], r.res.Report, r.text)
		}
		tl.op(err)
	}
	return p
}

// passMetrics are the end-to-end values of one pass (daemon: one session);
// lat holds the latency of each design routed (job done) in it.
func passMetrics(wall time.Duration, alloc, heap uint64, score float64, lat []float64) map[string]float64 {
	return map[string]float64{
		"route_s":      wall.Seconds(),
		"alloc_mb":     mb(alloc),
		"peak_heap_mb": mb(heap),
		"score":        score,
		"jobs_per_s":   float64(len(lat)) / wall.Seconds(),
		"job_ms_p50":   quantile(lat, 0.5),
		"job_ms_p90":   quantile(lat, 0.9),
	}
}

// traceRouting is the traced run of a routing workload: untraced passes
// (core.Route) alternate with traced ones until the window is used. A
// monolithic traced pass is the replay of package-level calls; a sharded
// one runs core.Route with the metrics registry attached and times the
// shard plan and tree splits from outside. Layer values are the median
// over traced passes.
func traceRouting(w *workload, cfg config, tl *tally) (map[string]float64, *tracer, error) {
	designs, _, err := routingSetup(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	refs := make([]*reference, len(designs))
	var plain, traced []float64
	var layers []map[string]float64
	var last *tracer
	start := time.Now()
	var lastPair time.Duration
	for pair := 0; keepGoing(pair, 1, time.Since(start), lastPair, cfg.window); pair++ {
		pairStart := time.Now()
		p := routePass(w, designs, refs, tl)
		plain = append(plain, p.wall.Seconds())

		runtime.GC()
		tr := newTracer()
		root := tr.begin("pass", -1, 0)
		var lv map[string]float64
		var twall time.Duration
		if w.Shards > 0 {
			lv, twall = tracedShardPass(w, designs, refs, tr, root, tl)
		} else {
			lv, twall = tracedReplayPass(w, designs, refs, tr, root, tl)
		}
		tr.end(root)
		traced = append(traced, twall.Seconds())
		layers = append(layers, lv)
		last = tr
		lastPair = time.Since(pairStart)
	}
	out := medianMaps(layers)
	out["bench.trace_overhead"] = median(traced) / median(plain)
	return out, last, nil
}

// tracedReplayPass replays every design under spans and checks each replay
// against the design's core.Route reference.
func tracedReplayPass(w *workload, designs []*design.Design, refs []*reference, tr *tracer, root int, tl *tally) (map[string]float64, time.Duration) {
	var wall time.Duration
	var sum replayCounts
	var reps []core.Report
	guideBytes := 0
	for i, d := range designs {
		start := time.Now()
		res, n, err := replay(d, routeOptions(w, w.Designs[i].Scale), tr, root)
		var text []byte
		if err == nil {
			s := tr.begin("guide.emit", root, 0)
			var gs []guide.Guide
			gs, text, err = emitGuides(res)
			tr.end(s)
			wall += time.Since(start)
			if err == nil {
				err = checkRouted(res, gs)
			}
		}
		if err == nil && refs[i] != nil {
			err = sameReplay(refs[i].rep, res.Report)
			if err == nil {
				err = sameOutcome(refs[i], res.Report, text)
			}
		}
		tl.op(err)
		if err != nil {
			continue
		}
		sum.add(n)
		reps = append(reps, res.Report)
		guideBytes += len(text)
	}
	return replayLayers(tr.aggregate(root), sum, reps, guideBytes), wall
}

// tracedShardPass routes every design through the sharded pipeline with
// the metrics registry attached, then times the shard plan and tree splits
// from outside and checks them against the report.
func tracedShardPass(w *workload, designs []*design.Design, refs []*reference, tr *tracer, root int, tl *tally) (map[string]float64, time.Duration) {
	var wall time.Duration
	reg := obs.NewRegistry()
	var reps []core.Report
	guideBytes, leaves, boundary := 0, 0, 0
	for i, d := range designs {
		opt := routeOptions(w, w.Designs[i].Scale)
		opt.Obs = &obs.Observer{Metrics: reg}
		start := time.Now()
		s := tr.begin("core.route", root, 0)
		res, err := core.Route(d, opt)
		tr.end(s)
		var text []byte
		if err == nil {
			s = tr.begin("guide.emit", root, 0)
			var gs []guide.Guide
			gs, text, err = emitGuides(res)
			tr.end(s)
			wall += time.Since(start)
			if err == nil {
				err = checkRouted(res, gs)
			}
		}
		if err == nil && refs[i] != nil {
			err = sameOutcome(refs[i], res.Report, text)
		}
		if err == nil {
			s = tr.begin("shard.plan", root, 0)
			plan := shard.BuildPlan(d, opt.MazeMargin)
			tr.end(s)
			s = tr.begin("shard.split", root, 0)
			nb := 0
			for _, n := range d.Nets {
				if t := res.Trees[n.ID]; plan.LeafOf(t.BBox()) < 0 {
					shard.SplitTree(plan, t)
					nb++
				}
			}
			tr.end(s)
			if plan.NumLeaves() != res.Report.ShardLeaves || nb != res.Report.BoundaryNets {
				err = fmt.Errorf("%s: outside shard plan has %d leaves and %d boundary nets, the route reports %d and %d",
					d.Name, plan.NumLeaves(), nb, res.Report.ShardLeaves, res.Report.BoundaryNets)
			}
			leaves += plan.NumLeaves()
			boundary += nb
		}
		tl.op(err)
		if err != nil {
			continue
		}
		reps = append(reps, res.Report)
		guideBytes += len(text)
	}
	agg := tr.aggregate(root)
	out := reportLayers(reps, reg.Snapshot())
	out["shard.plan_ms"] = spanMs(agg, "shard.plan")
	out["shard.split_ms"] = spanMs(agg, "shard.split")
	out["shard.leaves"] = float64(leaves)
	out["shard.boundary_nets"] = float64(boundary)
	out["guide.emit_ms"] = spanMs(agg, "guide.emit")
	out["guide.bytes"] = float64(guideBytes)
	return out, wall
}

func (c *replayCounts) add(o replayCounts) {
	c.Expansions += o.Expansions
	c.ConflictEdges += o.ConflictEdges
	c.Ripped += o.Ripped
	c.Fixed += o.Fixed
	c.GraphAlloc += o.GraphAlloc
	c.QualityAlloc += o.QualityAlloc
	c.PatternAlloc += o.PatternAlloc
	c.PlanAlloc += o.PlanAlloc
	c.Workers = o.Workers
}

func spanMs(agg map[string]*layerTime, name string) float64 {
	if lt := agg[name]; lt != nil {
		return nsToMs(lt.Total)
	}
	return 0
}

func spanCount(agg map[string]*layerTime, name string) float64 {
	if lt := agg[name]; lt != nil {
		return float64(lt.Count)
	}
	return 0
}

// replayLayers turns one traced replay pass into layer values.
func replayLayers(agg map[string]*layerTime, n replayCounts, reps []core.Report, guideBytes int) map[string]float64 {
	v := map[string]float64{
		"maze.search_ms":         spanMs(agg, "maze.search"),
		"maze.searches":          spanCount(agg, "maze.search"),
		"maze.expansions":        float64(n.Expansions),
		"sched.graph_ms":         spanMs(agg, "sched.graph"),
		"sched.graph_alloc_mb":   mb(uint64(n.GraphAlloc)),
		"sched.conflict_edges":   float64(n.ConflictEdges),
		"sched.batch_ms":         spanMs(agg, "sched.batches"),
		"taskflow.run_ms":        spanMs(agg, "taskflow.run"),
		"route.commit_ms":        spanMs(agg, "route.commit"),
		"route.commits":          spanCount(agg, "route.commit"),
		"route.uncommit_ms":      spanMs(agg, "route.uncommit"),
		"route.uncommits":        spanCount(agg, "route.uncommit"),
		"route.scan_ms":          spanMs(agg, "route.scan"),
		"route.quality_ms":       spanMs(agg, "route.quality"),
		"route.quality_alloc_mb": mb(uint64(n.QualityAlloc)),
		"patterngpu.batch_ms":    spanMs(agg, "patterngpu.batch"),
		"patterngpu.alloc_mb":    mb(uint64(n.PatternAlloc)),
		"stt.plan_ms":            spanMs(agg, "stt.plan"),
		"stt.plan_alloc_mb":      mb(uint64(n.PlanAlloc)),
		"grid.new_ms":            spanMs(agg, "grid.new"),
		"grid.warm_ms":           spanMs(agg, "grid.warm"),
		"grid.warm_calls":        spanCount(agg, "grid.warm"),
		"core.plan_ms":           spanMs(agg, "core.plan"),
		"core.pattern_ms":        spanMs(agg, "core.pattern"),
		"core.rrr_ms":            spanMs(agg, "core.rrr"),
		"guide.emit_ms":          spanMs(agg, "guide.emit"),
		"guide.bytes":            float64(guideBytes),
	}
	if n.Expansions > 0 {
		v["maze.ns_per_expansion"] = float64(agg["maze.search"].Total) / float64(n.Expansions)
	}
	if run := agg["taskflow.run"]; run != nil && run.Total > 0 {
		v["taskflow.idle_frac"] = 1 - float64(agg["rrr.task"].Total)/float64(int64(n.Workers)*run.Total)
	}
	if n.Ripped > 0 {
		v["core.rrr_fixed_frac"] = float64(n.Fixed) / float64(n.Ripped)
	}
	v["core.rrr_nets"] = float64(n.Ripped)
	for k, x := range reportCounts(reps) {
		v[k] = x
	}
	return v
}

// reportCounts are the layer counts every routing report carries.
func reportCounts(reps []core.Report) map[string]float64 {
	v := map[string]float64{}
	for _, rep := range reps {
		v["sched.batches"] += float64(rep.PatternBatches)
		v["patterngpu.calls"] += float64(rep.PatternBatches)
		v["patterngpu.seq_ops"] += float64(rep.PatternSeqOps)
		v["patterngpu.edges"] += float64(rep.TotalEdges)
		v["patterngpu.hybrid_edges"] += float64(rep.HybridEdges)
		v["core.shorts"] += float64(rep.Quality.Shorts)
	}
	return v
}

// reportLayers reads layer values from what a route already returns when
// no replay exists for its pipeline: the report's counts and stage walls,
// and the counters of the metrics registry attached to the run.
func reportLayers(reps []core.Report, snap obs.Snapshot) map[string]float64 {
	v := reportCounts(reps)
	for _, rep := range reps {
		v["core.plan_ms"] += ms(rep.Times.PlanWall)
		v["core.pattern_ms"] += ms(rep.Times.PatternWall)
		v["core.rrr_ms"] += ms(rep.Times.MazeWall)
		for _, it := range rep.RRR {
			v["core.rrr_nets"] += float64(it.Nets)
		}
	}
	v["maze.searches"] = float64(snap.Counters[obs.MMazeSearches])
	v["maze.expansions"] = float64(snap.Histograms[obs.MMazeExpansions].Sum)
	return v
}
