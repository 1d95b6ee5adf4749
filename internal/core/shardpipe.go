// The routing pipeline's pattern and rip-up stages, run over the leaves of
// a spatial plan (internal/shard). Options.Shards >= 1 bisects the grid
// into leaf regions on pin density: intra-leaf nets route fully inside
// their leaf against a leaf-windowed cost cache, and nets straddling a cut
// are split into per-leaf fragments routed against the frozen halo state,
// then stitched and reconciled at sequential coordinator points.
// Shards == 0 is the one-leaf case: the whole-grid plan, every net intra,
// no splits, no stitch and no reconcile, with one full-grid view whose
// cache (prefix sums included) lives for the whole run.
//
// Shard-count invariance. Every decision below derives from the cut tree
// (a pure function of design and margin) or happens at a coordinator
// point in canonical net order. The shard count K only picks how leaves
// are grouped onto executor slots; leaves touch provably disjoint grid
// edges (an intra-leaf route never commits an edge leaving its leaf, and
// crossing edges are committed only at the stitch point), so the demand
// trajectory each leaf observes is independent of which other leaves run
// beside it. Routed output is therefore bit-identical for every K >= 1
// and every ExecWorkers count.
//
// Memory. The whole-grid leaf materializes a full-grid cost cache
// (values + prefix sums); a multi-leaf plan never warms the parent
// graph's cache — each slot warms at most one leaf-sized window view at a
// time, and coordinator passes (stitching, reconciliation, boundary
// reroutes) read the direct cost formula. Peak heap shrinks with the leaf
// size, which is what Report.PeakHeapBytes measures.
package core

import (
	"errors"
	"fmt"
	"time"

	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/obs"
	"fastgr/internal/par"
	"fastgr/internal/pattern"
	"fastgr/internal/patterngpu"
	"fastgr/internal/route"
	"fastgr/internal/sched"
	"fastgr/internal/shard"
	"fastgr/internal/stt"
	"fastgr/internal/taskflow"
)

// shardSetup builds the leaf plan and classifies every net: a net whose
// Steiner tree fits inside one leaf is intra (routed wholly by that
// leaf); anything else is split into per-leaf fragments plus the
// crossing edges the stitcher will realize. Classification runs at a
// coordinator point and depends only on (design, margin) — never on the
// shard count. Shards == 0 takes the whole-grid plan without building a
// cut tree: every net is intra to leaf 0.
func (r *runner) shardSetup() {
	r.intraLeaf = make([]int, len(r.trees))
	if r.opt.Shards == 0 {
		r.shplan = shard.WholeGrid(r.g.W, r.g.H)
		return
	}
	sp := r.opt.Obs.T().StartSpan("shard.plan", obs.Coordinator)
	defer sp.End()
	r.shplan = shard.BuildPlan(r.d, r.opt.MazeMargin)
	r.rep.Shards = r.opt.Shards
	r.rep.ShardLeaves = r.shplan.NumLeaves()
	r.splits = make([]*shard.Split, len(r.trees))
	for _, n := range r.d.Nets {
		t := r.trees[n.ID]
		if leaf := r.shplan.LeafOf(t.BBox()); leaf >= 0 {
			r.intraLeaf[n.ID] = leaf
		} else {
			r.intraLeaf[n.ID] = -1
			r.splits[n.ID] = shard.SplitTree(r.shplan, t)
			r.rep.BoundaryNets++
		}
	}
}

// newSearch returns a maze scratch configured from the run's options.
func (r *runner) newSearch() *maze.Search {
	s := maze.NewSearch()
	s.SetAlgorithm(r.opt.MazeAlgorithm)
	s.SetObserver(r.opt.Obs)
	s.SetBudget(r.opt.MazeBudget)
	return s
}

// patItem is one unit of pattern work: an intra net's whole tree, or one
// leaf's fragment of a boundary net.
type patItem struct {
	net   *design.Net
	trees []*stt.Tree
	frag  int // index into splits[net.ID].Fragments; -1 for an intra net
}

// leafAcct accumulates one leaf's pattern-stage accounting; the slices of
// these are reduced in leaf-ordinal order after the barrier so every
// reported number is independent of execution interleaving.
type leafAcct struct {
	seqOps      int64
	kernelTime  time.Duration
	totalEdges  int
	hybridEdges int
	fallbacks   int
}

func itemBBox(trees []*stt.Tree) geom.Rect {
	bb := trees[0].BBox()
	for _, t := range trees[1:] {
		bb = bb.Union(t.BBox())
	}
	return bb
}

// shardGrouping sizes the two-level executor: outer slots iterate leaf
// groups, inner workers execute inside one leaf. outer*inner never
// exceeds the executor pool, so sharding cannot oversubscribe the host.
func (r *runner) shardGrouping() (groups [][]int, outer, inner int) {
	groups = r.shplan.Groups(r.opt.Shards)
	outer = len(groups)
	if w := r.pool.Workers(); outer > w {
		outer = w
	}
	inner = r.pool.Workers() / outer
	if inner < 1 {
		inner = 1
	}
	return groups, outer, inner
}

// slotLane is the tracer lane of slot s's own spans (pattern batches and
// their kernels). A lone slot runs inline on the coordinator goroutine
// (a one-worker par.Pool.For), so its spans stay on the stages lane;
// concurrent slots draw on the first of their composite worker lanes.
func slotLane(s, outer, inner int) int {
	if outer == 1 {
		return obs.Coordinator
	}
	return s * inner
}

// batchSpan opens a per-batch span on the given lane; the formatting only
// runs when tracing is on.
func batchSpan(tr *obs.Tracer, lane, batch int) obs.Span {
	if !tr.On() {
		return obs.Span{}
	}
	return tr.StartSpan(fmt.Sprintf("pattern.batch[%d]", batch), lane)
}

// patternStage routes every net with the variant's pattern kernel: per
// leaf, batch by batch, committing demand after each batch, then — when
// the plan has boundary nets — a sequential stitch of every boundary
// net's fragments across the cuts and a reconciliation pass rerouting the
// stitched nets that overflow. Every leaf batch boundary is a
// cancellation checkpoint: a cancelled run stops between batches with
// every committed batch intact. whole is the run's full-grid view on the
// whole-grid plan and nil otherwise.
func (r *runner) patternStage(whole *grid.Graph) error {
	start := obs.StartStopwatch()
	tr := r.opt.Obs.T()
	sp := tr.StartSpan("pattern", obs.Coordinator)
	defer sp.End()
	r.stageStart("pattern")

	// Assign work to leaves: one item per intra net, one per (boundary
	// net, leaf) fragment. Items reach each leaf in the global scheme
	// order — a total order, so a leaf's list is the order of its own
	// membership, which the cut tree fixes independently of K.
	ordered := append([]*design.Net(nil), r.d.Nets...)
	sched.SortNets(ordered, r.opt.Scheme)
	numLeaves := r.shplan.NumLeaves()
	leafItems := make([][]*patItem, numLeaves)
	fragRoutes := make([][]*route.NetRoute, len(r.routes))
	for _, n := range ordered {
		if leaf := r.intraLeaf[n.ID]; leaf >= 0 {
			leafItems[leaf] = append(leafItems[leaf], &patItem{net: n, trees: []*stt.Tree{r.trees[n.ID]}, frag: -1})
			continue
		}
		s := r.splits[n.ID]
		fragRoutes[n.ID] = make([]*route.NetRoute, len(s.Fragments))
		for fi := range s.Fragments {
			f := &s.Fragments[fi]
			leafItems[f.Leaf] = append(leafItems[f.Leaf], &patItem{net: n, trees: f.Trees, frag: fi})
		}
	}

	leafBatches := make([][][]sched.Task, numLeaves)
	for leaf, items := range leafItems {
		tasks := make([]sched.Task, len(items))
		for i, it := range items {
			tasks[i] = sched.Task{ID: i, BBox: itemBBox(it.trees), Payload: it}
		}
		leafBatches[leaf] = sched.ExtractBatches(tasks)
		sched.ObserveBatches(r.opt.Obs.M(), leafBatches[leaf])
		r.rep.PatternBatches += len(leafBatches[leaf])
	}

	cfg := r.patternConfig()
	groups, outer, inner := r.shardGrouping()
	accts := make([]leafAcct, numLeaves)

	// commitItem commits an item's route through the leaf view (demand is
	// shared with the parent; the view's cache writes the mutation
	// through). A boundary fragment made of several trees merges their
	// results into one route.
	commitItem := func(view *grid.Graph, a *leafAcct, it *patItem, results []pattern.Result) {
		nr := results[0].Route
		if len(results) > 1 {
			nr = &route.NetRoute{NetID: it.net.ID}
			for _, res := range results {
				nr.Paths = append(nr.Paths, res.Route.Paths...)
			}
		}
		for _, res := range results {
			a.totalEdges += res.Edges
			a.hybridEdges += res.HybridEdges
		}
		nr.Commit(view)
		if it.frag < 0 {
			r.routes[it.net.ID] = nr
		} else {
			fragRoutes[it.net.ID][it.frag] = nr
		}
	}

	// Slot fan-out: slot s owns groups s, s+outer, ... — leaves never
	// migrate between goroutines mid-stage, and a leaf's batches run in
	// their canonical order. CUGR solves net by net on the CPU, rewarming
	// the view at each batch boundary; the FastGR variants launch one
	// kernel per batch on a router per leaf, whose batch-ordinal base
	// keyed by the leaf keeps kernel fault-injection units disjoint across
	// leaves and invariant in K. The leaf loop stays inline in the slot
	// callback so fastgrlint's shardisolation check sees every warm. The
	// outer pool carries no observer (its lanes belong to the inner
	// executors).
	slotErrs := make([]error, outer)
	par.NewPool(outer).For(outer, func(_, s int) {
		lane := slotLane(s, outer, inner)
		for gi := s; gi < len(groups); gi += outer {
			for _, leaf := range groups[gi] {
				if len(leafBatches[leaf]) == 0 {
					continue
				}
				view := whole
				if view == nil {
					view = r.g.WindowView(r.shplan.Leaf(leaf))
				}
				a := &accts[leaf]
				var router *patterngpu.Router
				if r.opt.Variant != CUGR {
					router = patterngpu.New(r.opt.Device, cfg)
					router.Workers = inner
					router.Obs = r.opt.Obs
					router.Fault = r.fc
					router.CPU = r.opt.CPU
					router.SetLane(lane)
					router.SetBatchBase(leaf << 20)
				}
				for bi, batch := range leafBatches[leaf] {
					if err := r.checkpoint("pattern", -1); err != nil {
						slotErrs[s] = err
						return
					}
					bsp := batchSpan(tr, lane, bi)
					if router == nil {
						view.WarmCostCache()
						for _, task := range batch {
							it := task.Payload.(*patItem)
							results := make([]pattern.Result, len(it.trees))
							for i, t := range it.trees {
								results[i] = pattern.SolveCPU(view, t, cfg)
								a.seqOps += results[i].Ops.Total()
							}
							commitItem(view, a, it, results)
						}
					} else {
						trees := make([]*stt.Tree, 0, len(batch))
						for _, task := range batch {
							trees = append(trees, task.Payload.(*patItem).trees...)
						}
						br := router.RouteBatch(view, trees)
						if br.CPUFallback {
							a.fallbacks++
						}
						pos := 0
						for _, task := range batch {
							it := task.Payload.(*patItem)
							commitItem(view, a, it, br.Results[pos:pos+len(it.trees)])
							pos += len(it.trees)
						}
						a.seqOps += br.SeqOps
						a.kernelTime += br.KernelTime
					}
					bsp.End()
					// Health is mutex-guarded, so slot-side beats are safe
					// and order-independent.
					r.stageBeat("pattern")
				}
			}
		}
	})
	for _, err := range slotErrs {
		if err != nil {
			return err
		}
	}

	var kernelTime time.Duration
	for leaf := range accts {
		a := &accts[leaf]
		r.rep.PatternSeqOps += a.seqOps
		kernelTime += a.kernelTime
		r.rep.TotalEdges += a.totalEdges
		r.rep.HybridEdges += a.hybridEdges
		r.rep.Fault.KernelFallbacks += a.fallbacks
	}
	r.rep.PatternSeqTime = r.opt.CPU.SequentialTime(r.rep.PatternSeqOps)
	if r.opt.Variant == CUGR {
		r.rep.Times.Pattern = r.rep.PatternSeqTime
		// The kernel routers count their own edges per batch.
		if m := r.opt.Obs.M(); m != nil {
			m.Counter(obs.MPatternHybrid).Add(int64(r.rep.HybridEdges))
			m.Counter(obs.MPatternLShape).Add(int64(r.rep.TotalEdges - r.rep.HybridEdges))
		}
	} else {
		r.rep.Times.Pattern = kernelTime
	}

	if r.splits != nil {
		// The stitch is the stage's last coordinator pass; checking here
		// means a cancelled run stops before rewriting any boundary net.
		if err := r.checkpoint("stitch", -1); err != nil {
			return err
		}
		if err := r.stitchAndReconcile(fragRoutes); err != nil {
			return err
		}
		// The fragment decompositions duplicate every boundary net's
		// Steiner geometry; once stitched routes are committed nothing
		// reads them again (RRR classifies via intraLeaf and reroutes
		// whole nets), so release them rather than carry them to the
		// stage's high-water mark.
		r.splits = nil
	}
	r.rep.PatternQuality = r.snapshotQuality()
	r.rep.PatternScore = r.rep.PatternQuality.Score()
	r.rep.Times.PatternWall = start.Elapsed()
	r.stageDone("pattern", r.rep.Times.PatternWall, r.rep.PatternScore)
	return nil
}

// stitchAndReconcile runs the two coordinator passes over boundary nets
// in canonical net order: stitching realizes each net's crossing edges
// against the now-complete post-pattern demand (the frozen halo snapshot
// every shard routed against), and reconciliation reroutes whole any
// stitched net still crossing an over-capacity edge.
func (r *runner) stitchAndReconcile(fragRoutes [][]*route.NetRoute) error {
	tr := r.opt.Obs.T()
	sp := tr.StartSpan("shard.stitch", obs.Coordinator)
	for _, n := range r.d.Nets {
		s := r.splits[n.ID]
		if s == nil {
			continue
		}
		frs := fragRoutes[n.ID]
		// The merged route re-commits every fragment edge, so the
		// fragments must come off the grid first or demand would double.
		for _, fr := range frs {
			if fr != nil && fr.Committed() {
				fr.Uncommit(r.g)
			}
		}
		crossings := make([]route.Crossing, len(s.Crossings))
		for i, c := range s.Crossings {
			crossings[i] = route.Crossing{A: c.A, B: c.B}
		}
		nr := route.StitchFragments(r.g, n.ID, route.PinTerminals(r.trees[n.ID]), frs, crossings)
		nr.Commit(r.g)
		r.routes[n.ID] = nr
	}
	sp.End()

	rsp := tr.StartSpan("shard.reconcile", obs.Coordinator)
	defer rsp.End()
	rsearch := r.newSearch()
	var recExp int64
	for _, n := range r.d.Nets {
		if r.splits[n.ID] == nil {
			continue
		}
		old := r.routes[n.ID]
		if old == nil || !old.HasOverflow(r.g) {
			continue
		}
		win := n.BBox().Inflate(r.opt.MazeMargin).ClampTo(r.g.W, r.g.H)
		old.Uncommit(r.g)
		nr, st, err := rsearch.RouteNet(r.g, n.ID, route.PinTerminals(r.trees[n.ID]), win)
		if err != nil {
			old.Commit(r.g)
			var be *maze.BudgetError
			if errors.As(err, &be) {
				recExp += st.Expansions
				r.rep.Fault.BudgetFallbacks++
				r.fc.Degrade(fault.SiteBudget, 1)
				continue
			}
			return fmt.Errorf("core: shard reconciliation: %w", err)
		}
		nr.Commit(r.g)
		r.routes[n.ID] = nr
		r.rep.BoundaryReroutes++
		recExp += st.Expansions
	}
	r.rep.ReconcileTime = time.Duration(float64(recExp) * r.opt.MazeNsPerExpansion)
	r.rep.Times.Maze += r.rep.ReconcileTime
	return nil
}

// rrrStage runs the rip-up-and-reroute iterations with the variant's
// scheduling strategy. Each iteration scans and sorts the violating nets
// globally (so the reported scheduling models cover the same task set at
// every K), then executes in two phases: intra-leaf nets fan out over
// leaf groups with leaf-clamped maze windows and window-view cost caches,
// and boundary nets reroute sequentially at the coordinator against the
// post-barrier state. The top of every iteration is a cancellation
// checkpoint. whole is the run's full-grid view on the whole-grid plan
// and nil otherwise.
func (r *runner) rrrStage(whole *grid.Graph) error {
	start := obs.StartStopwatch()
	tr := r.opt.Obs.T()
	stageSp := tr.StartSpan("rrr", obs.Coordinator)
	defer stageSp.End()
	r.stageStart("rrr")
	scheme := r.opt.Scheme
	if r.opt.RRRSchemeOverride != nil {
		scheme = *r.opt.RRRSchemeOverride
	}

	numLeaves := r.shplan.NumLeaves()
	groups, outer, inner := r.shardGrouping()
	outerPool := par.NewPool(outer)

	// One maze scratch per composite lane (slot*inner + inner worker),
	// reused across nets and iterations: the search hot path then
	// allocates nothing but the routes it returns. Lanes are disjoint
	// across slots, and the executors below never hand one worker id to
	// two goroutines at once, so a scratch never sees two goroutines.
	searches := make([]*maze.Search, outer*inner)
	for i := range searches {
		searches[i] = r.newSearch()
	}
	for iter := 0; iter < r.opt.RRRIters; iter++ {
		if err := r.checkpoint("rrr", iter); err != nil {
			return err
		}
		var iterSp obs.Span
		if tr.On() {
			iterSp = tr.StartSpan(fmt.Sprintf("rrr.iter[%d]", iter), obs.Coordinator)
		}
		violating, scanErr := r.violatingNets()
		if scanErr != nil {
			return scanErr
		}
		if iter == 0 {
			r.rep.NetsToRipup = len(violating)
		}
		if len(violating) == 0 {
			iterSp.End()
			break
		}
		sched.SortNets(violating, scheme)

		// Two task views: execution conflicts on the full maze window
		// (tasks with disjoint windows touch disjoint grid state and may
		// safely run concurrently), while the reported scheduling models
		// conflict on the net bounding boxes, as the paper's task graph
		// does, over every violating net — intra and boundary alike.
		windows := make([]geom.Rect, len(violating))
		modelTasks := make([]sched.Task, len(violating))
		leafTis := make([][]int, numLeaves)
		var boundaryTis []int
		for ti, n := range violating {
			windows[ti] = n.BBox().Inflate(r.opt.MazeMargin).ClampTo(r.g.W, r.g.H)
			modelTasks[ti] = sched.Task{ID: ti, BBox: n.BBox(), Payload: n}
			if leaf := r.intraLeaf[n.ID]; leaf >= 0 {
				leafTis[leaf] = append(leafTis[leaf], ti)
			} else {
				boundaryTis = append(boundaryTis, ti)
			}
		}
		modelGraph := sched.BuildGraph(modelTasks, r.g.W, r.g.H)

		durations := make([]time.Duration, len(violating))
		expansions := make([]int64, len(violating))
		budgetTrips := make([]bool, len(violating))

		// reroute rips up one net on gg (a leaf view or the parent graph)
		// within win. It is retry-safe: injections fire at wrapper entry
		// (before any grid mutation) and the Committed guards make the
		// uncommit/restore idempotent, so a retried unit always starts
		// from the committed old route. A budget trip — real or injected
		// — is a graceful outcome (the net keeps its current route), any
		// other maze error is a hard abort.
		reroute := func(gg *grid.Graph, sr *maze.Search, ti, lane int, win geom.Rect) error {
			n := violating[ti]
			var msp obs.Span
			if tr.On() {
				msp = tr.StartSpan("maze:"+n.Name, lane)
			}
			defer msp.End()
			if r.fc.InjectBudget(ti, lane) {
				budgetTrips[ti] = true
				return nil
			}
			old := r.routes[n.ID]
			if old.Committed() {
				old.Uncommit(gg)
			}
			pins := route.PinTerminals(r.trees[n.ID])
			nr, st, err := sr.RouteNet(gg, n.ID, pins, win)
			if err != nil {
				// Restore the old route so the grid stays consistent.
				if !old.Committed() {
					old.Commit(gg)
				}
				var be *maze.BudgetError
				if errors.As(err, &be) {
					budgetTrips[ti] = true
					expansions[ti] = st.Expansions
					durations[ti] = time.Duration(float64(st.Expansions) * r.opt.MazeNsPerExpansion)
					r.fc.Degrade(fault.SiteBudget, 1)
					return nil
				}
				return err
			}
			nr.Commit(gg)
			r.routes[n.ID] = nr
			expansions[ti] = st.Expansions
			durations[ti] = time.Duration(float64(st.Expansions) * r.opt.MazeNsPerExpansion)
			return nil
		}

		// Phase B: intra-leaf nets, leaf groups fanned over slots, inline
		// in the slot callback so fastgrlint's shardisolation check sees
		// the warm. A multi-leaf plan opens a fresh window view per leaf
		// (it must postdate the previous iteration's coordinator
		// commits); the whole-grid plan rewarms its run-long view, which
		// no coordinator pass bypasses. Windows clamp to the leaf, so
		// every mutation stays inside it — the disjointness that lets
		// leaves run unsynchronized.
		execErrs := make([]error, outer)
		leafFailed := make([]int, numLeaves)
		leafSkipped := make([]int, numLeaves)
		outerPool.For(outer, func(_, s int) {
			for gi := s; gi < len(groups); gi += outer {
				for _, leaf := range groups[gi] {
					tis := leafTis[leaf]
					if len(tis) == 0 {
						continue
					}
					leafRect := r.shplan.Leaf(leaf)
					view := whole
					if view == nil {
						view = r.g.WindowView(leafRect)
					}
					view.WarmCostCache()
					ltasks := make([]sched.Task, len(tis))
					for i, ti := range tis {
						ltasks[i] = sched.Task{ID: i, BBox: windows[ti].Intersect(leafRect), Payload: ti}
					}
					work := func(worker, li int) error {
						lane := s*inner + worker
						return reroute(view, searches[lane], ltasks[li].Payload.(int), lane, ltasks[li].BBox)
					}
					if r.opt.Variant != CUGR {
						lg := sched.BuildGraph(ltasks, r.g.W, r.g.H)
						frep := taskflow.RunWorkersFault(lg, inner, s*inner, r.opt.Obs, r.fc, work)
						if frep.CancelErr != nil {
							execErrs[s] = frep.CancelErr
							return
						}
						leafFailed[leaf], leafSkipped[leaf] = len(frep.Failed), len(frep.Skipped)
						continue
					}
					// Batch-barrier strategy: batches execute in order with
					// a full barrier between them; tasks inside a batch
					// have disjoint maze windows. A unit that exhausts
					// containment leaves its net on the old route; an
					// uncontained maze error aborts the iteration.
					ip := par.NewPool(inner)
					ip.SetObserver(r.opt.Obs)
					ip.SetLane(s * inner)
					ip.SetFault(r.fc)
					for _, batch := range sched.ExtractBatches(ltasks) {
						errs := ip.ForUnits(fault.SiteTask, len(batch), func(worker, bi int) error {
							return work(worker, batch[bi].ID)
						})
						for _, we := range errs {
							if !we.Contained {
								execErrs[s] = we.Cause
								return
							}
							leafFailed[leaf]++
						}
					}
				}
			}
		})
		for s := 0; s < outer; s++ {
			if execErrs[s] != nil {
				return fmt.Errorf("core: rip-up iteration %d: %w", iter, execErrs[s])
			}
		}
		iterFailed, iterSkipped := 0, 0
		for leaf := 0; leaf < numLeaves; leaf++ {
			iterFailed += leafFailed[leaf]
			iterSkipped += leafSkipped[leaf]
		}

		// Phase A: boundary nets, sequential at the coordinator in sorted
		// order against the complete post-barrier state, full windows on
		// the parent graph (whose cache is never warmed — direct formula).
		// The coordinator scratch grows to the largest boundary window —
		// potentially the whole grid — so unlike the leaf-bounded worker
		// scratches it is per-iteration: holding it across iterations
		// would keep a grid-sized allocation on the steady-state heap.
		var csearch *maze.Search
		if len(boundaryTis) > 0 {
			csearch = r.newSearch()
		}
		for _, ti := range boundaryTis {
			err := r.fc.Run(fault.SiteTask, ti, obs.Coordinator, func() error {
				return reroute(r.g, csearch, ti, obs.Coordinator, windows[ti])
			})
			if err != nil {
				var we *fault.WorkError
				if errors.As(err, &we) && we.Contained {
					iterFailed++
					continue
				}
				return fmt.Errorf("core: rip-up iteration %d: %w", iter, err)
			}
		}

		// Both scheduling models over the same recorded durations, on the
		// paper-faithful (bounding-box) conflict structure.
		idBatches := [][]int{}
		for _, b := range sched.ExtractBatches(modelTasks) {
			ids := make([]int, len(b))
			for i, task := range b {
				ids[i] = task.ID
			}
			idBatches = append(idBatches, ids)
		}
		tg := taskflow.Makespan(modelGraph, durations, r.opt.Workers)
		bb := taskflow.BatchMakespan(idBatches, durations, r.opt.Workers)

		var totalExp int64
		for _, e := range expansions {
			totalExp += e
		}
		iterBudget := 0
		for _, tripped := range budgetTrips {
			if tripped {
				iterBudget++
			}
		}
		r.rep.Fault.FailedNets += iterFailed
		r.rep.Fault.SkippedNets += iterSkipped
		r.rep.Fault.BudgetFallbacks += iterBudget
		iterQ := r.snapshotQuality()
		st := IterStats{
			Nets:            len(violating),
			Expansions:      totalExp,
			TaskGraphTime:   tg,
			BatchTime:       bb,
			ConflictEdges:   modelGraph.Edges,
			Quality:         iterQ,
			Score:           iterQ.Score(),
			FailedNets:      iterFailed,
			SkippedNets:     iterSkipped,
			BudgetFallbacks: iterBudget,
		}
		r.rep.RRR = append(r.rep.RRR, st)
		if m := r.opt.Obs.M(); m != nil {
			m.Counter(obs.MRRRNets).Add(int64(len(violating)))
			m.Counter(obs.MRRRExpansions).Add(totalExp)
			m.Gauge(obs.MRRRIterations).Set(int64(iter + 1))
			m.Gauge(obs.MRRROverflow).Set(int64(iterQ.Shorts))
		}
		r.rep.MazeTaskGraphTime += tg
		r.rep.MazeBatchTime += bb
		if r.opt.Variant == CUGR {
			r.rep.Times.Maze += bb
		} else {
			r.rep.Times.Maze += tg
		}
		if r.opt.HistoryRRR {
			bump := r.opt.HistoryBump
			if bump <= 0 {
				bump = 0.5
			}
			// Through the run-long view when there is one, so its cache
			// takes the history write-through; leaf views are rebuilt
			// next iteration anyway.
			hg := r.g
			if whole != nil {
				hg = whole
			}
			hg.BumpOverflowHistory(bump)
		}
		r.sampleHeap()
		r.stageBeat("rrr")
		r.journalIter(iter, st, iterQ)
		iterSp.End()
	}
	r.rep.Times.MazeWall = start.Elapsed()
	score := r.rep.PatternScore
	if n := len(r.rep.RRR); n > 0 {
		score = r.rep.RRR[n-1].Score
	}
	r.stageDone("rrr", r.rep.Times.MazeWall, score)
	return nil
}
