// Package sched implements the paper's heterogeneous task-graph scheduler
// (Section III-B): task conflict graphs from bounding-box overlap, the
// Algorithm-1 batch extraction that carves maximal conflict-free batches out
// of a sorted task list, root-batch selection, and the conflict-edge
// orientation that turns the conflict graph into an execution DAG (Fig. 6).
// It also provides the six inter-net sorting schemes of Table IV.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/obs"
)

// Scheme is an inter-net ordering strategy (Table IV).
type Scheme int

const (
	// PinsAsc sorts by ascending pin count.
	PinsAsc Scheme = iota
	// PinsDesc sorts by descending pin count.
	PinsDesc
	// HPWLAsc sorts by ascending bounding-box half perimeter — the scheme
	// the paper settles on (Section IV-C).
	HPWLAsc
	// HPWLDesc sorts by descending half perimeter.
	HPWLDesc
	// AreaAsc sorts by ascending bounding-box area.
	AreaAsc
	// AreaDesc sorts by descending bounding-box area.
	AreaDesc
)

// Schemes lists all sorting schemes in Table IV order.
var Schemes = []Scheme{PinsAsc, PinsDesc, HPWLAsc, HPWLDesc, AreaAsc, AreaDesc}

func (s Scheme) String() string {
	switch s {
	case PinsAsc:
		return "pins-asc"
	case PinsDesc:
		return "pins-desc"
	case HPWLAsc:
		return "hpwl-asc"
	case HPWLDesc:
		return "hpwl-desc"
	case AreaAsc:
		return "area-asc"
	case AreaDesc:
		return "area-desc"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// SortNets orders nets in place by the scheme, breaking ties by net ID so
// every scheme is a deterministic total order.
func SortNets(nets []*design.Net, s Scheme) {
	key := func(n *design.Net) int {
		switch s {
		case PinsAsc:
			return len(n.Pins)
		case PinsDesc:
			return -len(n.Pins)
		case HPWLAsc:
			return n.HPWL()
		case HPWLDesc:
			return -n.HPWL()
		case AreaAsc:
			return n.BBox().Area()
		case AreaDesc:
			return -n.BBox().Area()
		}
		return 0
	}
	sort.SliceStable(nets, func(i, j int) bool {
		ki, kj := key(nets[i]), key(nets[j])
		if ki != kj {
			return ki < kj
		}
		return nets[i].ID < nets[j].ID
	})
}

// Task is one schedulable unit: a net (rip-up-and-reroute stage) or a whole
// batch (pattern stage), identified by its position in the sorted task list.
// Two tasks conflict when their bounding boxes overlap.
type Task struct {
	ID   int // index in the sorted task list (the paper's task ID)
	BBox geom.Rect
	// Payload lets callers attach the underlying net or batch.
	Payload interface{}
}

// ExtractBatches repeatedly applies Algorithm 1 to the task list (already in
// the desired sort order): each pass greedily collects tasks that do not
// conflict with anything already in the batch, yielding near-maximal
// independent sets. Every task lands in exactly one batch. Conflict checks
// go through the same 16x16 G-cell binning the conflict graph uses, so a
// pass costs near-linear time instead of the quadratic scan over all
// accepted boxes.
func ExtractBatches(tasks []Task) [][]Task {
	occ := newBinnedOccupancy(taskBounds(tasks))
	// Batches partition the task list, so they are consecutive runs of one
	// array; the tasks deferred by a pass ping-pong between two buffers.
	out := make([]Task, len(tasks))
	remaining := append([]Task(nil), tasks...)
	spare := make([]Task, 0, len(tasks))
	var batches [][]Task
	for off := 0; len(remaining) > 0; {
		occ.reset()
		batch := out[off:off:len(out)]
		rest := spare[:0]
		for _, t := range remaining {
			if occ.conflicts(t.BBox) {
				rest = append(rest, t)
				continue
			}
			batch = append(batch, t)
			occ.add(t.BBox)
		}
		batches = append(batches, batch[:len(batch):len(batch)])
		off += len(batch)
		spare, remaining = remaining, rest
	}
	return batches
}

// ObserveBatches records Algorithm-1 batch statistics into the registry:
// the batch-size histogram the paper's Fig. 9 plots, plus batch and task
// counters. A nil registry is a no-op; the batches are only read.
func ObserveBatches(m *obs.Registry, batches [][]Task) {
	if m == nil {
		return
	}
	h := m.Histogram(obs.MBatchSize, obs.BatchSizeBuckets)
	m.Counter(obs.MSchedBatches).Add(int64(len(batches)))
	for _, b := range batches {
		h.Observe(int64(len(b)))
	}
}

// taskBounds returns grid dimensions covering every task bbox, for callers
// that do not know the grid (ExtractBatches).
func taskBounds(tasks []Task) (w, h int) {
	for _, t := range tasks {
		w = geom.Max(w, t.BBox.Hi.X+1)
		h = geom.Max(h, t.BBox.Hi.Y+1)
	}
	return w, h
}

// binShift sets the spatial bin size used by conflict detection: 16x16
// G-cell bins, matching the conflict-graph construction.
const binShift = 4

// binnedOccupancy is an incremental set of committed bounding boxes with
// binned conflict queries: each box is registered in every 16x16 G-cell bin
// it touches, and a query only tests boxes sharing a bin with the probe.
type binnedOccupancy struct {
	binsX, binsY int
	bins         [][]geom.Rect
}

func newBinnedOccupancy(w, h int) *binnedOccupancy {
	binsX := (geom.Max(w, 1) >> binShift) + 1
	binsY := (geom.Max(h, 1) >> binShift) + 1
	return &binnedOccupancy{binsX: binsX, binsY: binsY, bins: make([][]geom.Rect, binsX*binsY)}
}

// reset empties the set, keeping the per-bin storage for reuse.
func (o *binnedOccupancy) reset() {
	for i := range o.bins {
		o.bins[i] = o.bins[i][:0]
	}
}

// binSpan returns the inclusive ranges of 16x16 G-cell bins r touches in a
// binsX x binsY bin grid; a range is empty (lo > hi) when r misses the grid.
func binSpan(r geom.Rect, binsX, binsY int) (x0, x1, y0, y1 int) {
	return geom.Max(0, r.Lo.X>>binShift), geom.Min(r.Hi.X>>binShift, binsX-1),
		geom.Max(0, r.Lo.Y>>binShift), geom.Min(r.Hi.Y>>binShift, binsY-1)
}

func (o *binnedOccupancy) add(r geom.Rect) {
	x0, x1, y0, y1 := binSpan(r, o.binsX, o.binsY)
	for by := y0; by <= y1; by++ {
		for bx := x0; bx <= x1; bx++ {
			o.bins[by*o.binsX+bx] = append(o.bins[by*o.binsX+bx], r)
		}
	}
}

func (o *binnedOccupancy) conflicts(r geom.Rect) bool {
	x0, x1, y0, y1 := binSpan(r, o.binsX, o.binsY)
	for by := y0; by <= y1; by++ {
		for bx := x0; bx <= x1; bx++ {
			for _, b := range o.bins[by*o.binsX+bx] {
				if r.Overlaps(b) {
					return true
				}
			}
		}
	}
	return false
}

// Graph is the oriented task graph: Succ[i] lists the tasks that must wait
// for task i in ascending task order, Indegree[i] the number of tasks i
// waits for.
type Graph struct {
	Tasks    []Task
	Succ     [][]int
	Indegree []int
	// RootBatch flags the tasks selected into the independent root batch.
	RootBatch []bool
	// Edges is the number of conflict pairs oriented.
	Edges int
}

// BuildGraph constructs the conflict graph over tasks (bounding-box overlap,
// found with a coarse spatial binning) and orients every conflict edge with
// the paper's two rules: root-batch tasks precede their non-root neighbors;
// between two non-root tasks the smaller task ID goes first. The root batch
// is the first Algorithm-1 batch. The result is acyclic by construction:
// every edge either leaves the root batch or goes from a smaller to a larger
// ID.
//
// Tasks are walked in order over the 16x16 G-cell bins. Each task tests
// only the later tasks sharing one of its bins, and a per-task last-seen
// stamp makes a pair that shares several bins cost one overlap test, so no
// candidate pair list is ever materialised, sorted or deduplicated. The
// root batch falls out of the same walk: a task joins it unless an earlier
// root task overlaps it, which is exactly the greedy Algorithm-1 pass.
func BuildGraph(tasks []Task, gridW, gridH int) *Graph {
	n := len(tasks)
	g := &Graph{
		Tasks:     tasks,
		Succ:      make([][]int, n),
		Indegree:  make([]int, n),
		RootBatch: make([]bool, n),
	}
	bins := newTaskBins(tasks, gridW, gridH)
	// later holds, per task i, its overlapping tasks j > i in ascending
	// order: the run later[start[i]:start[i+1]].
	start := make([]int32, n+1)
	var later []int32
	seen := make([]int32, n) // seen[j] == i+1: j already tested against i
	// A task stays in the root batch unless an earlier root task overlaps
	// it; by the time the walk reaches task i its flag is final.
	for i := range g.RootBatch {
		g.RootBatch[i] = true
	}
	for i := range tasks {
		r := tasks[i].BBox
		stamp := int32(i) + 1
		from := len(later)
		nbins := 0
		bins.each(r, func(b int) {
			nbins++
			// The bin lists tasks in ascending order and every earlier
			// task in it has advanced the cursor, so the cursor sits on i.
			c := bins.cursor[b]
			bins.cursor[b]++
			for _, j := range bins.tasks[c+1 : bins.start[b+1]] {
				if seen[j] == stamp {
					continue
				}
				seen[j] = stamp
				if r.Overlaps(tasks[j].BBox) {
					later = append(later, j)
				}
			}
		})
		mine := later[from:]
		if nbins > 1 {
			slices.Sort(mine)
		}
		start[i+1] = int32(len(later))
		if g.RootBatch[i] {
			for _, j := range mine {
				g.RootBatch[j] = false
			}
		}
	}

	// Orient, count, then fill one backing array. Pairs are visited in
	// (i, j) order, so every Succ list comes out ascending: a task's
	// successors below it (it is root, they are not) all precede the ones
	// above it.
	outdeg := make([]int, n)
	orient := func(i, j int) (int, int) {
		if g.RootBatch[j] && !g.RootBatch[i] {
			return j, i
		}
		return i, j
	}
	for i := 0; i < n; i++ {
		for _, j := range later[start[i]:start[i+1]] {
			from, to := orient(i, int(j))
			outdeg[from]++
			g.Indegree[to]++
		}
	}
	g.Edges = len(later)
	backing := make([]int, len(later))
	off := 0
	for i, k := range outdeg {
		if k > 0 {
			g.Succ[i] = backing[off : off : off+k]
			off += k
		}
	}
	for i := 0; i < n; i++ {
		for _, j := range later[start[i]:start[i+1]] {
			from, to := orient(i, int(j))
			g.Succ[from] = append(g.Succ[from], to)
		}
	}
	return g
}

// taskBins registers every task in each 16x16 G-cell bin its bbox touches,
// in one flat array: bin b lists tasks[start[b]:start[b+1]] in ascending
// task order. cursor[b] is BuildGraph's walk position in bin b.
type taskBins struct {
	binsX, binsY int
	start        []int32
	tasks        []int32
	cursor       []int32
}

func newTaskBins(tasks []Task, gridW, gridH int) *taskBins {
	binsX := (geom.Max(gridW, 1) >> binShift) + 1
	binsY := (geom.Max(gridH, 1) >> binShift) + 1
	tb := &taskBins{binsX: binsX, binsY: binsY, start: make([]int32, binsX*binsY+1)}
	for _, t := range tasks {
		tb.each(t.BBox, func(b int) { tb.start[b+1]++ })
	}
	for b := 1; b < len(tb.start); b++ {
		tb.start[b] += tb.start[b-1]
	}
	tb.tasks = make([]int32, tb.start[len(tb.start)-1])
	tb.cursor = append([]int32(nil), tb.start[:binsX*binsY]...)
	for i, t := range tasks {
		tb.each(t.BBox, func(b int) {
			tb.tasks[tb.cursor[b]] = int32(i)
			tb.cursor[b]++
		})
	}
	copy(tb.cursor, tb.start)
	return tb
}

// each calls f with every bin index r touches, row by row.
func (tb *taskBins) each(r geom.Rect, f func(b int)) {
	x0, x1, y0, y1 := binSpan(r, tb.binsX, tb.binsY)
	for by := y0; by <= y1; by++ {
		for bx := x0; bx <= x1; bx++ {
			f(by*tb.binsX + bx)
		}
	}
}

// TopoOrder returns a topological order of the graph; it panics if the
// orientation produced a cycle, which the construction rules make
// impossible short of a bug.
func (g *Graph) TopoOrder() []int {
	indeg := append([]int(nil), g.Indegree...)
	queue := make([]int, 0, len(g.Tasks))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(g.Tasks))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.Succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		panic("sched: task graph has a cycle")
	}
	return order
}
