package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/metrics"
	"fastgr/internal/par"
	"fastgr/internal/pattern"
	"fastgr/internal/patterngpu"
	"fastgr/internal/route"
	"fastgr/internal/sched"
	"fastgr/internal/stt"
	"fastgr/internal/taskflow"
)

// replayCounts are the layer counts and allocation readings of one replay
// that spans alone do not carry.
type replayCounts struct {
	Expansions    int64
	ConflictEdges int   // both conflict graphs of every iteration
	Ripped        int   // nets ripped up, summed over iterations
	Fixed         int   // ripped nets that no longer overflow afterwards
	GraphAlloc    int64 // bytes allocated by sched.BuildGraph
	QualityAlloc  int64 // bytes allocated by the quality snapshots
	PatternAlloc  int64 // bytes allocated by patterngpu RouteBatch
	PlanAlloc     int64 // bytes allocated by stt.Build/Shift
	Workers       int
}

// replayer re-runs core.Route's monolithic pipeline (plan, pattern stage,
// rip-up-and-reroute) from the public calls of each layer, in core's order,
// with a span around every call. It covers the options the benchmark uses;
// anything else is refused rather than replayed approximately.
type replayer struct {
	d   *design.Design
	opt core.Options
	tr  *tracer

	g      *grid.Graph
	trees  []*stt.Tree
	routes []*route.NetRoute
	rep    core.Report
	n      replayCounts
}

// replay routes d as core.Route would and returns the same Result, with
// spans recorded under parent on tr.
func replay(d *design.Design, opt core.Options, tr *tracer, parent int) (*core.Result, replayCounts, error) {
	switch {
	case opt.Variant == core.CUGR, opt.Shards != 0, opt.HistoryRRR, opt.PatternModeOverride != nil,
		opt.RRRSchemeOverride != nil, opt.Fault != nil, opt.Containment != nil, opt.MazeBudget != 0:
		return nil, replayCounts{}, errors.New("replay: options outside the replayed pipeline")
	}
	if err := d.Validate(); err != nil {
		return nil, replayCounts{}, err
	}
	r := &replayer{d: d, opt: opt, tr: tr}
	r.n.Workers = opt.ExecWorkers
	if r.n.Workers < 1 {
		r.n.Workers = 1
	}
	root := tr.begin("core.route", parent, 0)
	s := tr.begin("grid.new", root, 0)
	r.g = grid.NewFromDesign(d)
	tr.end(s)
	r.rep.Design, r.rep.Variant = d.Name, opt.Variant.String()
	r.plan(root)
	r.sampleHeap(root)
	r.patternStage(root)
	r.sampleHeap(root)
	ripped, err := r.rrrStage(root)
	r.sampleHeap(root)
	r.rep.Quality = r.quality(root)
	r.rep.Score = r.rep.Quality.Score()
	r.rep.Times.Total = r.rep.Times.Pattern + r.rep.Times.Maze
	tr.end(root)
	// Which of the last iteration's nets still overflow: not part of
	// core's pipeline, so it runs after the root span closes.
	r.countFixed(ripped, r.scan())
	res := &core.Result{Report: r.rep, Grid: r.g, Design: d, Trees: r.trees, Routes: r.routes}
	return res, r.n, err
}

// sampleHeap repeats core's HeapGC collection at stage boundaries, so the
// traced and untraced runs pay for the same collections.
func (r *replayer) sampleHeap(parent int) {
	if !r.opt.HeapGC {
		return
	}
	s := r.tr.begin("runtime.gc", parent, 0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > r.rep.PeakHeapBytes {
		r.rep.PeakHeapBytes = ms.HeapAlloc
	}
	r.tr.end(s)
}

func (r *replayer) plan(parent int) {
	sp := r.tr.begin("core.plan", parent, 0)
	defer r.tr.end(sp)
	maxID := 0
	for _, n := range r.d.Nets {
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	r.trees = make([]*stt.Tree, maxID+1)
	r.routes = make([]*route.NetRoute, maxID+1)
	a := allocBytes()
	s := r.tr.begin("stt.plan", sp, 0)
	est := r.g.Estimator2D()
	par.For(r.n.Workers, len(r.d.Nets), func(_, i int) {
		n := r.d.Nets[i]
		t := stt.Build(n)
		if !r.opt.NoEdgeShift {
			t.Shift(est)
		}
		r.trees[n.ID] = t
	})
	r.tr.end(s)
	r.n.PlanAlloc += int64(allocBytes() - a)
}

func (r *replayer) patternStage(parent int) {
	sp := r.tr.begin("core.pattern", parent, 0)
	defer r.tr.end(sp)
	s := r.tr.begin("sched.sort", sp, 0)
	ordered := append([]*design.Net(nil), r.d.Nets...)
	sched.SortNets(ordered, r.opt.Scheme)
	r.tr.end(s)
	tasks := make([]sched.Task, len(ordered))
	for i, n := range ordered {
		tasks[i] = sched.Task{ID: i, BBox: r.trees[n.ID].BBox(), Payload: n}
	}
	s = r.tr.begin("sched.batches", sp, 0)
	batches := sched.ExtractBatches(tasks)
	r.tr.end(s)
	r.rep.PatternBatches = len(batches)

	cfg := pattern.Config{Mode: pattern.LShape}
	if r.opt.Variant == core.FastGRH {
		cfg = pattern.Config{Mode: pattern.Hybrid, Selection: !r.opt.SelectionOff, T1: r.opt.T1, T2: r.opt.T2}
	}
	router := patterngpu.New(r.opt.Device, cfg)
	router.Workers = r.n.Workers
	router.CPU = r.opt.CPU
	for _, batch := range batches {
		trees := make([]*stt.Tree, len(batch))
		nets := make([]*design.Net, len(batch))
		for i, task := range batch {
			nets[i] = task.Payload.(*design.Net)
			trees[i] = r.trees[nets[i].ID]
		}
		a := allocBytes()
		s := r.tr.begin("patterngpu.batch", sp, 0)
		br := router.RouteBatch(r.g, trees)
		r.tr.end(s)
		r.n.PatternAlloc += int64(allocBytes() - a)
		for i, res := range br.Results {
			s := r.tr.begin("route.commit", sp, 0)
			res.Route.Commit(r.g)
			r.tr.end(s)
			r.routes[nets[i].ID] = res.Route
			r.rep.TotalEdges += res.Edges
			r.rep.HybridEdges += res.HybridEdges
		}
		r.rep.PatternSeqOps += br.SeqOps
		r.rep.Times.Pattern += br.KernelTime
	}
	r.rep.PatternSeqTime = r.opt.CPU.SequentialTime(r.rep.PatternSeqOps)
	r.rep.PatternQuality = r.quality(sp)
	r.rep.PatternScore = r.rep.PatternQuality.Score()
}

// rrrStage runs the rip-up iterations and returns the nets the last one
// ripped up (nil when it found none).
func (r *replayer) rrrStage(parent int) ([]*design.Net, error) {
	sp := r.tr.begin("core.rrr", parent, 0)
	defer r.tr.end(sp)
	searches := make([]*maze.Search, r.n.Workers)
	for i := range searches {
		searches[i] = maze.NewSearch()
		searches[i].SetAlgorithm(r.opt.MazeAlgorithm)
	}
	var ripped []*design.Net
	for iter := 0; iter < r.opt.RRRIters; iter++ {
		it := r.tr.begin("core.iter", sp, 0)
		violating := r.violating(it)
		r.countFixed(ripped, violating)
		ripped = nil
		if iter == 0 {
			r.rep.NetsToRipup = len(violating)
		}
		if len(violating) == 0 {
			r.tr.end(it)
			break
		}
		s := r.tr.begin("grid.warm", it, 0)
		r.g.WarmCostCache()
		r.tr.end(s)
		s = r.tr.begin("sched.sort", it, 0)
		sched.SortNets(violating, r.opt.Scheme)
		r.tr.end(s)

		tasks := make([]sched.Task, len(violating))
		modelTasks := make([]sched.Task, len(violating))
		for i, n := range violating {
			win := n.BBox().Inflate(r.opt.MazeMargin).ClampTo(r.g.W, r.g.H)
			tasks[i] = sched.Task{ID: i, BBox: win, Payload: n}
			modelTasks[i] = sched.Task{ID: i, BBox: n.BBox(), Payload: n}
		}
		a := allocBytes()
		s = r.tr.begin("sched.graph", it, 0)
		graph := sched.BuildGraph(tasks, r.g.W, r.g.H)
		r.tr.end(s)
		s = r.tr.begin("sched.graph", it, 0)
		modelGraph := sched.BuildGraph(modelTasks, r.g.W, r.g.H)
		r.tr.end(s)
		r.n.GraphAlloc += int64(allocBytes() - a)
		r.n.ConflictEdges += graph.Edges + modelGraph.Edges

		durations := make([]time.Duration, len(tasks))
		expansions := make([]int64, len(tasks))
		errs := make([]error, len(tasks))
		run := r.tr.begin("taskflow.run", it, 0)
		taskflow.RunWorkers(graph, r.n.Workers, func(worker, ti int) {
			lane := 1 + worker
			ts := r.tr.begin("rrr.task", run, lane)
			defer r.tr.end(ts)
			n := tasks[ti].Payload.(*design.Net)
			old := r.routes[n.ID]
			if old.Committed() {
				s := r.tr.begin("route.uncommit", ts, lane)
				old.Uncommit(r.g)
				r.tr.end(s)
			}
			pins := route.PinTerminals(r.trees[n.ID])
			s := r.tr.begin("maze.search", ts, lane)
			nr, st, err := searches[worker].RouteNet(r.g, n.ID, pins, tasks[ti].BBox)
			r.tr.end(s)
			if err != nil {
				if !old.Committed() {
					old.Commit(r.g)
				}
				errs[ti] = err
				return
			}
			s = r.tr.begin("route.commit", ts, lane)
			nr.Commit(r.g)
			r.tr.end(s)
			r.routes[n.ID] = nr
			expansions[ti] = st.Expansions
			durations[ti] = time.Duration(float64(st.Expansions) * r.opt.MazeNsPerExpansion)
		})
		r.tr.end(run)
		for _, err := range errs {
			if err != nil {
				r.tr.end(it)
				return nil, fmt.Errorf("replay: rip-up iteration %d: %w", iter, err)
			}
		}

		s = r.tr.begin("sched.batches", it, 0)
		idBatches := [][]int{}
		for _, b := range sched.ExtractBatches(modelTasks) {
			ids := make([]int, len(b))
			for i, task := range b {
				ids[i] = task.ID
			}
			idBatches = append(idBatches, ids)
		}
		r.tr.end(s)
		s = r.tr.begin("taskflow.model", it, 0)
		tg := taskflow.Makespan(modelGraph, durations, r.opt.Workers)
		bb := taskflow.BatchMakespan(idBatches, durations, r.opt.Workers)
		r.tr.end(s)

		var totalExp int64
		for _, e := range expansions {
			totalExp += e
		}
		r.n.Expansions += totalExp
		q := r.quality(it)
		r.rep.RRR = append(r.rep.RRR, core.IterStats{
			Nets: len(violating), Expansions: totalExp,
			TaskGraphTime: tg, BatchTime: bb, ConflictEdges: modelGraph.Edges,
			Quality: q, Score: q.Score(),
		})
		r.rep.MazeTaskGraphTime += tg
		r.rep.MazeBatchTime += bb
		r.rep.Times.Maze += tg
		r.sampleHeap(it)
		ripped = violating
		r.n.Ripped += len(violating)
		r.tr.end(it)
	}
	return ripped, nil
}

// countFixed adds the ripped nets that are absent from the next
// iteration's violating set.
func (r *replayer) countFixed(ripped, violating []*design.Net) {
	still := make(map[int]bool, len(violating))
	for _, n := range violating {
		still[n.ID] = true
	}
	for _, n := range ripped {
		if !still[n.ID] {
			r.n.Fixed++
		}
	}
}

// violating is core's overflow scan, as a traced call.
func (r *replayer) violating(parent int) []*design.Net {
	s := r.tr.begin("route.scan", parent, 0)
	defer r.tr.end(s)
	return r.scan()
}

// scan lists, in design order, the nets whose routes cross an
// over-capacity edge.
func (r *replayer) scan() []*design.Net {
	flags := make([]bool, len(r.d.Nets))
	par.For(r.n.Workers, len(r.d.Nets), func(_, i int) {
		if rt := r.routes[r.d.Nets[i].ID]; rt != nil && rt.HasOverflow(r.g) {
			flags[i] = true
		}
	})
	var out []*design.Net
	for i, f := range flags {
		if f {
			out = append(out, r.d.Nets[i])
		}
	}
	return out
}

// quality is core's eq.-15 snapshot over the current routes.
func (r *replayer) quality(parent int) metrics.Quality {
	a := allocBytes()
	s := r.tr.begin("route.quality", parent, 0)
	var q metrics.Quality
	for _, n := range r.d.Nets {
		if rt := r.routes[n.ID]; rt != nil {
			q.Wirelength += rt.Wirelength(r.g)
			q.Vias += rt.ViaCount(r.g)
		}
	}
	wire, via := r.g.Overflow()
	q.Shorts = wire + via
	r.tr.end(s)
	r.n.QualityAlloc += int64(allocBytes() - a)
	return q
}
