// Package maze implements the 3-D maze routing used in the rip-up-and-
// reroute iterations (Section III-G): a multi-source multi-target shortest
// path search on the grid graph, restricted to a search window around the
// net, that reconnects a net pin by pin into a routed tree. Unlike pattern
// routing it explores every path inside the window, which is what lets
// rerouting resolve the violations pattern routing leaves behind.
//
// The search runs as A* by default: an admissible lower bound (L1 distance
// to the nearest remaining target scaled by the unit wire/via costs) prunes
// expansions that plain Dijkstra would settle. Because the congestion term
// of the cost model is strictly positive, the bound is strictly below every
// real path cost, and with (key, node-index) heap ordering plus a canonical
// equal-cost parent rule the routed geometry is bit-identical to the
// Dijkstra mode (selectable via SetAlgorithm) — DESIGN.md carries the
// argument, maze_crosscheck_test.go enforces it.
//
// The search state (distance/visited/parent arrays, heap storage, the
// connected and target sets) lives in a reusable Search scratch object:
// rip-up-and-reroute calls RouteNet thousands of times, and reusing one
// Search per executor worker keeps the hot path allocation-free. Stale state
// is invalidated by epoch stamping instead of clearing, so rebinding the
// scratch to a new window costs O(1) beyond any capacity growth.
package maze

import (
	"errors"
	"fmt"
	"math"

	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/obs"
	"fastgr/internal/route"
)

// Stats reports the work done by one maze invocation, the currency of the
// rip-up-and-reroute timing model.
type Stats struct {
	Expansions int64 // settled node count
	Pushes     int64 // heap pushes
}

// Algorithm selects the maze search strategy. Both produce bit-identical
// routed geometry (on strictly positive edge costs); they differ only in
// how many nodes they expand.
type Algorithm int

const (
	// AStar, the default, guides the search with the admissible lower bound
	// described in the package comment.
	AStar Algorithm = iota
	// Dijkstra is the unguided baseline (a zero heuristic) — the seed
	// implementation, kept for the cross-check suite and benchmarking.
	Dijkstra
)

func (a Algorithm) String() string {
	if a == Dijkstra {
		return "dijkstra"
	}
	return "astar"
}

// BudgetError reports a RouteNet abandoned because the net's searches
// settled more nodes than the configured expansion budget allows. The
// caller degrades gracefully — typically by keeping the net's pattern
// route. The trip point is a pure function of the graph, the net and the
// budget (expansion order is deterministic), so budgeted runs stay
// bit-identical at every worker count.
type BudgetError struct {
	NetID      int
	Budget     int64
	Expansions int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("expansion budget %d exhausted after %d expansions", e.Budget, e.Expansions)
}

// RouteNet maze-routes a whole net inside the window with a fresh scratch
// object. Callers routing many nets should allocate one Search per worker
// and use its RouteNet method instead.
func RouteNet(g *grid.Graph, netID int, pins []geom.Point3, window geom.Rect) (*route.NetRoute, Stats, error) {
	return NewSearch().RouteNet(g, netID, pins, window)
}

// Search is the reusable maze-routing scratch: windowed Dijkstra state plus
// the per-net connected/target sets. A Search may be reused across nets,
// windows and grids; it must not be used from two goroutines at once. The
// routes it produces are bit-identical to those of a fresh Search.
type Search struct {
	g      *grid.Graph
	win    geom.Rect
	ww, wh int

	// Per-window-node arrays, epoch-stamped so rebinding and starting a new
	// Dijkstra pass both cost O(1): a node's entry is valid only when its
	// stamp matches the current epoch.
	dist    []float64
	parent  []int32 // packed predecessor node index, -1 none
	visited []bool
	stamp   []uint32
	epoch   uint32

	// Per-net sets, stamped like the arrays above but with epochs that tick
	// once per RouteNet call (they live across that net's Dijkstra passes).
	connStamp []uint32
	targStamp []uint32
	connEpoch uint32
	targEpoch uint32

	// connected is an ordered source list (its membership set is connStamp):
	// set iteration order would make equal-cost tie-breaking — and therefore
	// the chosen geometry and expansion counts — nondeterministic. targets
	// is the ordered list of unreached targets (membership set: targStamp),
	// scanned by the A* heuristic.
	connected []geom.Point3
	targets   []geom.Point3

	// alg selects the search strategy; hWire/hVia are the per-axis unit
	// costs of the current grid, the heuristic's scale factors.
	alg   Algorithm
	hWire float64
	hVia  float64

	// budget caps the settled-node count across one RouteNet call; 0 (the
	// default) is unlimited.
	budget int64

	q     pq
	nodes []geom.Point3 // pathNodes buffer
	pts   []geom.Point3 // reconstruct buffer

	// Flight-recorder handles, resolved once by SetObserver; all nil in
	// disabled mode, where RouteNet pays a handful of nil checks.
	expHist     *obs.Histogram
	expHistAlg  [2]*obs.Histogram // indexed by Algorithm
	pushCounter *obs.Counter
	searchCount *obs.Counter
}

// NewSearch returns an empty scratch; capacity grows on first use. The
// search algorithm defaults to AStar.
func NewSearch() *Search { return &Search{} }

// SetAlgorithm selects the search strategy for subsequent RouteNet calls.
func (s *Search) SetAlgorithm(a Algorithm) { s.alg = a }

// SetBudget caps the total expansions (settled nodes) one RouteNet call
// may spend across its passes; exceeding it aborts the net with a
// *BudgetError. 0 disables the cap.
func (s *Search) SetBudget(budget int64) { s.budget = budget }

// SetObserver attaches (or, with nil, detaches) the flight recorder:
// every RouteNet then records its expansion count into the
// obs.MMazeExpansions histogram (plus the per-algorithm split) and bumps
// the pushes/searches counters. Observation reads only the returned Stats,
// so routed geometry and the expansion counts themselves are unchanged.
func (s *Search) SetObserver(o *obs.Observer) {
	s.expHist = o.M().Histogram(obs.MMazeExpansions, obs.ExpansionBuckets)
	s.expHistAlg[AStar] = o.M().Histogram(obs.MMazeExpansionsAStar, obs.ExpansionBuckets)
	s.expHistAlg[Dijkstra] = o.M().Histogram(obs.MMazeExpansionsDijkstra, obs.ExpansionBuckets)
	s.pushCounter = o.M().Counter(obs.MMazePushes)
	s.searchCount = o.M().Counter(obs.MMazeSearches)
}

// bind points the scratch at a grid and window, growing the node arrays as
// needed: geometrically, so a run of ever larger windows reallocates a
// logarithmic number of times, but never past the whole grid's node count.
// Entries surviving from earlier windows are invalidated by their stale
// stamps, never by clearing.
func (s *Search) bind(g *grid.Graph, win geom.Rect) {
	s.g, s.win = g, win
	s.ww, s.wh = win.Width(), win.Height()
	n := s.ww * s.wh * g.L
	if cap(s.dist) < n {
		c := geom.Max(n, geom.Min(2*cap(s.dist), g.W*g.H*g.L))
		s.dist = make([]float64, c)
		s.parent = make([]int32, c)
		s.visited = make([]bool, c)
		s.stamp = make([]uint32, c)
		s.connStamp = make([]uint32, c)
		s.targStamp = make([]uint32, c)
	}
	s.dist = s.dist[:n]
	s.parent = s.parent[:n]
	s.visited = s.visited[:n]
	s.stamp = s.stamp[:n]
	s.connStamp = s.connStamp[:n]
	s.targStamp = s.targStamp[:n]
}

// bumpEpoch advances an epoch counter, clearing the backing array on the
// (once per 2^32 uses) wrap so stale stamps can never collide. The clear
// covers the whole capacity: a later, larger window reslices into it.
func bumpEpoch(e *uint32, arr []uint32) {
	*e++
	if *e == 0 {
		clear(arr[:cap(arr)])
		*e = 1
	}
}

// RouteNet maze-routes a whole net inside the window: starting from the
// first pin, it repeatedly runs Dijkstra from the already-connected
// geometry (all its 3-D nodes are sources) to the nearest unconnected pin,
// until every pin is connected. The grid is read-only; the caller commits
// the returned route.
func (s *Search) RouteNet(g *grid.Graph, netID int, pins []geom.Point3, window geom.Rect) (*route.NetRoute, Stats, error) {
	if len(pins) == 0 {
		return nil, Stats{}, fmt.Errorf("maze: net %d has no pins", netID)
	}
	window = window.ClampTo(g.W, g.H)
	for _, p := range pins {
		if !window.Contains(p.P()) {
			return nil, Stats{}, fmt.Errorf("maze: pin %v outside window %v", p, window)
		}
	}

	s.bind(g, window)
	s.hWire = math.Max(0, g.Params.UnitWire)
	s.hVia = math.Max(0, g.Params.UnitVia)
	bumpEpoch(&s.connEpoch, s.connStamp)
	bumpEpoch(&s.targEpoch, s.targStamp)
	r := &route.NetRoute{NetID: netID}
	var stats Stats

	s.connected = append(s.connected[:0], pins[0])
	s.connStamp[s.index(pins[0])] = s.connEpoch
	s.targets = s.targets[:0]
	for _, p := range pins[1:] {
		if p == pins[0] {
			continue
		}
		if i := s.index(p); s.targStamp[i] != s.targEpoch {
			s.targStamp[i] = s.targEpoch
			s.targets = append(s.targets, p)
		}
	}
	for len(s.targets) > 0 {
		limit := int64(-1) // unlimited
		if s.budget > 0 {
			limit = s.budget - stats.Expansions
		}
		path, reached, st, err := s.search(s.connected, limit)
		stats.Expansions += st.Expansions
		stats.Pushes += st.Pushes
		if err != nil {
			var be *BudgetError
			if errors.As(err, &be) {
				be.NetID = netID
				be.Budget = s.budget
				be.Expansions = stats.Expansions
			}
			return nil, stats, fmt.Errorf("maze: net %d: %w", netID, err)
		}
		s.targStamp[s.index(reached)] = s.targEpoch - 1
		s.dropTarget(reached)
		// Every node of the new path joins the source set.
		s.nodes = pathNodes(g, path, s.nodes[:0])
		for _, p3 := range s.nodes {
			if i := s.index(p3); s.connStamp[i] != s.connEpoch {
				s.connStamp[i] = s.connEpoch
				s.connected = append(s.connected, p3)
			}
		}
		if i := s.index(reached); s.connStamp[i] != s.connEpoch {
			s.connStamp[i] = s.connEpoch
			s.connected = append(s.connected, reached)
		}
		r.Paths = append(r.Paths, path)
	}
	s.expHist.Observe(stats.Expansions)
	s.expHistAlg[s.alg].Observe(stats.Expansions)
	s.pushCounter.Add(stats.Pushes)
	s.searchCount.Add(1)
	return r, stats, nil
}

// dropTarget removes a reached target from the ordered target list
// (stable, in place; membership already left targStamp above).
func (s *Search) dropTarget(reached geom.Point3) {
	keep := s.targets[:0]
	for _, t := range s.targets {
		if t != reached {
			keep = append(keep, t)
		}
	}
	s.targets = keep
}

// pathNodes appends all 3-D grid nodes a path touches to dst.
func pathNodes(g *grid.Graph, p route.Path, dst []geom.Point3) []geom.Point3 {
	for _, s := range p.Segs {
		if g.Dir(s.Layer) == grid.Horizontal {
			lo, hi := geom.Min(s.A.X, s.B.X), geom.Max(s.A.X, s.B.X)
			for x := lo; x <= hi; x++ {
				dst = append(dst, geom.Point3{X: x, Y: s.A.Y, Layer: s.Layer})
			}
		} else {
			lo, hi := geom.Min(s.A.Y, s.B.Y), geom.Max(s.A.Y, s.B.Y)
			for y := lo; y <= hi; y++ {
				dst = append(dst, geom.Point3{X: s.A.X, Y: y, Layer: s.Layer})
			}
		}
	}
	for _, v := range p.Vias {
		for l := v.L1; l <= v.L2; l++ {
			dst = append(dst, geom.Point3{X: v.X, Y: v.Y, Layer: l})
		}
	}
	return dst
}

func (s *Search) index(p geom.Point3) int32 {
	return int32(((p.Layer-1)*s.wh+(p.Y-s.win.Lo.Y))*s.ww + (p.X - s.win.Lo.X))
}

func (s *Search) point(i int32) geom.Point3 {
	x := int(i) % s.ww
	rest := int(i) / s.ww
	y := rest % s.wh
	l := rest/s.wh + 1
	return geom.Point3{X: x + s.win.Lo.X, Y: y + s.win.Lo.Y, Layer: l}
}

// fresh lazily resets per-search state via epoch stamping.
func (s *Search) fresh(i int32) {
	if s.stamp[i] != s.epoch {
		s.stamp[i] = s.epoch
		s.dist[i] = math.Inf(1)
		s.parent[i] = -1
		s.visited[i] = false
	}
}

type pqItem struct {
	node int32
	f    float64 // heap key: path cost plus heuristic (equal to g for Dijkstra)
	g    float64 // path cost, for the stale-entry check on pop
}

// pq is a binary min-heap ordered by (f, node). The sift operations mirror
// container/heap's algorithm — same swaps — but the ordering carries an
// explicit node-index tie-break, so the settle order on equal keys is a
// property of the graph, not of push order: one of the two ingredients
// (with the canonical parent rule in relaxNeighbors) that makes A* and
// Dijkstra produce bit-identical geometry. A concrete slice instead of
// heap.Interface avoids the per-push interface boxing that dominated maze
// allocations.
type pq []pqItem

// before is the strict heap order: smaller key first, smaller node index
// on exact key ties.
func (a pqItem) before(b pqItem) bool {
	return a.f < b.f || (a.f == b.f && a.node < b.node)
}

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	q.down(0, n)
	it := h[n]
	*q = h[:n]
	return it
}

func (q *pq) init() {
	n := len(*q)
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i, n)
	}
}

func (q *pq) up(j int) {
	h := *q
	for j > 0 {
		i := (j - 1) / 2
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) down(i, n int) {
	h := *q
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].before(h[j1]) {
			j = j2
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// heuristic is the admissible lower bound on the cost from p to the
// cheapest remaining target: per-axis L1 distance scaled by the unit wire
// and via costs, minimized over targets. Every wire edge costs at least
// UnitWire and every via edge at least UnitVia (the congestion term is
// nonnegative), so the bound never exceeds the true remaining cost; it is
// also consistent, because one step changes it by at most that step's unit
// cost. Zero in Dijkstra mode.
func (s *Search) heuristic(p geom.Point3) float64 {
	if s.alg == Dijkstra || len(s.targets) == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, t := range s.targets {
		h := float64(geom.Abs(p.X-t.X)+geom.Abs(p.Y-t.Y))*s.hWire +
			float64(geom.Abs(p.Layer-t.Layer))*s.hVia
		if h < best {
			best = h
		}
	}
	return best
}

// search runs one multi-source multi-target pass (A* or Dijkstra per the
// configured algorithm) and returns the cheapest path to whichever target
// settles first. Targets are the nodes whose targStamp carries the current
// target epoch. limit caps this pass's expansions (the net budget minus
// what earlier passes spent); negative means unlimited.
func (s *Search) search(sources []geom.Point3, limit int64) (route.Path, geom.Point3, Stats, error) {
	bumpEpoch(&s.epoch, s.stamp)
	var st Stats
	q := &s.q
	*q = (*q)[:0]
	for _, src := range sources {
		if !s.win.Contains(src.P()) {
			continue
		}
		i := s.index(src)
		s.fresh(i)
		if s.dist[i] > 0 {
			s.dist[i] = 0
			q.push(pqItem{node: i, f: s.heuristic(src), g: 0})
			st.Pushes++
		}
	}
	if len(*q) == 0 {
		return route.Path{}, geom.Point3{}, st, fmt.Errorf("no sources inside window")
	}
	q.init()

	for len(*q) > 0 {
		it := q.pop()
		i := it.node
		s.fresh(i)
		if s.visited[i] || it.g > s.dist[i] {
			continue
		}
		s.visited[i] = true
		st.Expansions++
		if s.targStamp[i] == s.targEpoch {
			return s.reconstruct(i), s.point(i), st, nil
		}
		if limit >= 0 && st.Expansions > limit {
			return route.Path{}, geom.Point3{}, st, &BudgetError{}
		}
		s.relaxNeighbors(s.point(i), i, q, &st)
	}
	return route.Path{}, geom.Point3{}, st, fmt.Errorf("targets unreachable within window")
}

func (s *Search) relaxNeighbors(p geom.Point3, i int32, q *pq, st *Stats) {
	g := s.g
	d := s.dist[i]
	relax := func(np geom.Point3, cost float64) {
		j := s.index(np)
		s.fresh(j)
		nd := d + cost
		if nd < s.dist[j] {
			s.dist[j] = nd
			s.parent[j] = i
			q.push(pqItem{node: j, f: nd + s.heuristic(np), g: nd})
			st.Pushes++
		} else if nd == s.dist[j] && cost > 0 && s.parent[j] >= 0 && i < s.parent[j] {
			// Canonical parent rule: among equal-cost predecessors the
			// smallest node index wins, independent of relaxation order.
			// (cost > 0 keeps the parent pointers acyclic; sources keep
			// their -1 root marker.)
			s.parent[j] = i
		}
	}
	// Wire moves along the layer's preferred direction.
	if g.Dir(p.Layer) == grid.Horizontal {
		if p.X+1 <= s.win.Hi.X {
			relax(geom.Point3{X: p.X + 1, Y: p.Y, Layer: p.Layer}, g.WireCost(p.Layer, p.X, p.Y))
		}
		if p.X-1 >= s.win.Lo.X {
			relax(geom.Point3{X: p.X - 1, Y: p.Y, Layer: p.Layer}, g.WireCost(p.Layer, p.X-1, p.Y))
		}
	} else {
		if p.Y+1 <= s.win.Hi.Y {
			relax(geom.Point3{X: p.X, Y: p.Y + 1, Layer: p.Layer}, g.WireCost(p.Layer, p.X, p.Y))
		}
		if p.Y-1 >= s.win.Lo.Y {
			relax(geom.Point3{X: p.X, Y: p.Y - 1, Layer: p.Layer}, g.WireCost(p.Layer, p.X, p.Y-1))
		}
	}
	// Via moves between adjacent layers.
	if p.Layer+1 <= g.L {
		relax(geom.Point3{X: p.X, Y: p.Y, Layer: p.Layer + 1}, g.ViaEdgeCost(p.X, p.Y, p.Layer))
	}
	if p.Layer-1 >= 1 {
		relax(geom.Point3{X: p.X, Y: p.Y, Layer: p.Layer - 1}, g.ViaEdgeCost(p.X, p.Y, p.Layer-1))
	}
}

// reconstruct walks parents back to a source, compressing runs of same-layer
// steps into segments and layer changes into via stacks.
func (s *Search) reconstruct(end int32) route.Path {
	pts := s.pts[:0]
	for i := end; i >= 0; i = s.parent[i] {
		pts = append(pts, s.point(i))
		if s.parent[i] < 0 {
			break
		}
	}
	s.pts = pts
	// pts runs target -> source; orientation does not matter for geometry.
	var path route.Path
	if len(pts) < 2 {
		return path
	}
	anchor := pts[0]
	for k := 1; k < len(pts); k++ {
		prev, cur := pts[k-1], pts[k]
		if cur.Layer != prev.Layer {
			// Flush wire run, then the via.
			if anchor != prev {
				path.AddSeg(prev.Layer, anchor.P(), prev.P())
			}
			path.AddVia(prev.X, prev.Y, prev.Layer, cur.Layer)
			anchor = cur
			continue
		}
		// Same layer: the run continues; direction cannot change mid-run on
		// a preferred-direction grid (one wire axis per layer).
	}
	last := pts[len(pts)-1]
	if anchor != last {
		path.AddSeg(last.Layer, anchor.P(), last.P())
	}
	return path
}
