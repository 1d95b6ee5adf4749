package grid

// Write-through cost-field cache. GPU global routers get their
// throughput by turning per-edge cost evaluation into array loads over
// precomputed cost maps (GAP-LA builds per-layer maps with prefix sums for
// its layer-assignment DP); this file brings the same structure to the two
// hot paths the profile names: WireCost/ViaEdgeCost (a logistic — an exp —
// per maze relaxation) and SegCost/ViaStackCost (an O(length) walk per
// pattern candidate).
//
// Layout. Per layer l the cache holds one float64 per wire edge (the value
// WireCost would compute) and, per routing line (a row of a horizontal
// layer, a column of a vertical one), an exclusive prefix-sum array of
// those values, so SegCost collapses to two reads. Vias mirror this per
// G-cell column: one value per boundary plus a per-cell prefix over the
// L-1 boundaries, collapsing ViaStackCost.
//
// Write-through protocol. Every demand or history mutation stores the
// mutated edge's fresh cost at the point of the write: wireCostAt/viaCostAt
// of the new state goes straight into the value array (plain write — edge
// mutation is already owner-exclusive under the disjoint-window discipline,
// exactly like the demand write it follows), and the edge's line/cell
// dirty flag is set (atomic — lines cross window boundaries, so concurrent
// rip-up workers in disjoint windows may share one). Per-edge values are
// therefore never stale once the cache is built, and readers never write
// the cache; a read misses only before the first warm or outside a
// windowed cache, and then evaluates the direct formula. Only the prefix
// sums wait for the dirty flags: a dirty line or cell falls back to
// summing its per-edge values. Prefix materialization happens in
// WarmCostCache, which callers invoke only at single-threaded coordinator
// points (between pattern batches, at the top of a rip-up iteration).
//
// Determinism. A cached edge value is bit-identical to the direct formula
// at the current state: it is produced by the same code, and refreshed on
// every write to the demand or history it reads. The prefix-sum segment
// read may differ from the left-fold walk by float rounding; every consumer
// of SegCost compares with tolerances, and the maze router uses only
// per-edge costs, so routed geometry is bit-identical for any warm/cold
// state.

import (
	"math"
	"sync/atomic"

	"fastgr/internal/geom"
	"fastgr/internal/obs"
)

// costCache is the materialized cost field of one Graph. Value/prefix
// arrays are nil until the first WarmCostCache, so an unwarmed graph
// behaves exactly like the pre-cache implementation.
type costCache struct {
	built bool

	// win bounds the cached region in G-cells; full marks a window covering
	// the whole grid. Prefix-sum arrays exist only for the full window: a
	// partial window would accumulate its sums from a different origin than
	// the full-grid fold, and that float-rounding difference could flip a
	// pattern-DP tie between window layouts. Windowed caches therefore serve
	// per-edge values only — each bit-identical to the direct formula — so a
	// shard view's cache state can change speed but never results.
	win  geom.Rect
	full bool

	// Wire side. For the full window, indexed like wireDem: [l-1][edge].
	// For a partial window, [l-1] holds the window's own row-major edge
	// block (see ccWireSpan/ccWireLocal).
	wireVal [][]float64
	// wirePfx[l-1] holds lineCount(l) runs of lineLen(l)+1 exclusive
	// prefix sums (full window only); wireDirty[l-1] has one flag per
	// window line.
	wirePfx   [][]float64
	wireDirty [][]atomic.Uint32

	// Via side: [b][cell] values, one L-entry prefix run per cell
	// (viaPfx[cell*L+k] sums boundaries 0..k-1), one flag per cell.
	viaVal   [][]float64
	viaPfx   []float64
	viaDirty []atomic.Uint32

	// Flight-recorder handles, resolved once by SetObserver; all nil in
	// disabled mode, where each event costs one nil check.
	hits   *obs.Counter
	misses *obs.Counter
	invals *obs.Counter
	warms  *obs.Counter
}

// SetObserver attaches (or, with nil, detaches) the flight recorder to the
// cost cache: fast-path hit/miss counters, per-edge write-through refresh
// counts and the number of lines/cells rebuilt by WarmCostCache.
func (g *Graph) SetObserver(o *obs.Observer) {
	g.cc.hits = o.M().Counter(obs.MCostHits)
	g.cc.misses = o.M().Counter(obs.MCostMisses)
	g.cc.invals = o.M().Counter(obs.MCostInvalidations)
	g.cc.warms = o.M().Counter(obs.MCostWarms)
}

// CostCacheBuilt reports whether the cost field has been materialized.
func (g *Graph) CostCacheBuilt() bool { return g.cc.built }

// lineLen is the edge count of one routing line of layer l; lineCount is
// the number of such lines.
func (g *Graph) lineLen(l int) int {
	if g.Dir(l) == Horizontal {
		return g.W - 1
	}
	return g.H - 1
}

func (g *Graph) lineCount(l int) int {
	if g.Dir(l) == Horizontal {
		return g.H
	}
	return g.W
}

// fullRect is the window covering every G-cell of the grid.
func (g *Graph) fullRect() geom.Rect {
	return geom.Rect{Hi: geom.Point{X: g.W - 1, Y: g.H - 1}}
}

// CostCacheWindow returns the region the cost cache covers.
func (g *Graph) CostCacheWindow() geom.Rect { return g.cc.win }

// ccWireSpan returns the cache-window geometry of layer l's wire edges:
// the number of cached edges per routing line and the number of window
// lines. An edge is cached when its starting cell lies in the window, so a
// window flush against the grid's far side has one fewer edge per line.
func (g *Graph) ccWireSpan(l int) (lineLen, lines int) {
	win := g.cc.win
	if g.Dir(l) == Horizontal {
		return geom.Min(win.Hi.X, g.W-2) - win.Lo.X + 1, win.Hi.Y - win.Lo.Y + 1
	}
	return geom.Min(win.Hi.Y, g.H-2) - win.Lo.Y + 1, win.Hi.X - win.Lo.X + 1
}

// ccWireLocal maps wire edge (x, y) of layer l to its window-local slot and
// line; ok is false when the edge lies outside the cache window. For the
// full window the local slot equals the global wireIndex.
func (g *Graph) ccWireLocal(l, x, y int) (idx, line int, ok bool) {
	win := g.cc.win
	lineLen, lines := g.ccWireSpan(l)
	var off int
	if g.Dir(l) == Horizontal {
		off, line = x-win.Lo.X, y-win.Lo.Y
	} else {
		off, line = y-win.Lo.Y, x-win.Lo.X
	}
	if off < 0 || off >= lineLen || line < 0 || line >= lines {
		return 0, 0, false
	}
	return line*lineLen + off, line, true
}

// ccViaLocal maps G-cell (x, y) to its window-local via slot; ok is false
// outside the window. For the full window the slot equals y*W+x.
func (g *Graph) ccViaLocal(x, y int) (int, bool) {
	win := g.cc.win
	lx, ly := x-win.Lo.X, y-win.Lo.Y
	if lx < 0 || ly < 0 || x > win.Hi.X || y > win.Hi.Y {
		return 0, false
	}
	return ly*win.Width() + lx, true
}

// wireCostAt is the direct cost formula for wire edge i of layer l — the
// single source of truth the miss path, the write-through and the warmer
// all evaluate.
func (g *Graph) wireCostAt(l, i int) float64 {
	cap, dem := g.wireCap[l-1][i], g.wireDem[l-1][i]
	c := g.Params.UnitWire + g.logistic(dem, cap)
	if cap <= 0 {
		c += g.Params.BlockedPenalty
	}
	if g.history != nil {
		c += HistoryWeight * float64(g.history[l-1][i])
	}
	return c
}

// viaCostAt is the direct via-edge formula for cell i across the boundary
// above layer l.
func (g *Graph) viaCostAt(l, i int) float64 {
	cap, dem := g.viaCap[l-1], g.viaDem[l-1][i]
	return g.Params.UnitVia + g.logistic(dem, cap)
}

// noteWireMutation writes the fresh cost of one mutated wire edge through
// to the cache and marks its line's prefix sums dirty. The caller owns the
// edge (demand writes already require that); the line flag is shared
// across windows and therefore atomic. i is the global edge index; a
// windowed cache inverts it to window-local coordinates and ignores
// mutations it never covered.
func (g *Graph) noteWireMutation(l, i int) {
	cc := &g.cc
	if !cc.built {
		return
	}
	if cc.full {
		cc.wireVal[l-1][i] = g.wireCostAt(l, i)
		cc.wireDirty[l-1][i/g.lineLen(l)].Store(1)
		cc.invals.Add(1)
		return
	}
	var x, y int
	if g.Dir(l) == Horizontal {
		y, x = i/(g.W-1), i%(g.W-1)
	} else {
		x, y = i/(g.H-1), i%(g.H-1)
	}
	li, line, ok := g.ccWireLocal(l, x, y)
	if !ok {
		return
	}
	cc.wireVal[l-1][li] = g.wireCostAt(l, i)
	cc.wireDirty[l-1][line].Store(1)
	cc.invals.Add(1)
}

// noteViaMutation writes one via edge's fresh cost through and marks its
// cell's prefix run dirty. cell is the global y*W+x index; windowed caches
// translate it like noteWireMutation does.
func (g *Graph) noteViaMutation(l, cell int) {
	cc := &g.cc
	if !cc.built {
		return
	}
	ci := cell
	if !cc.full {
		var ok bool
		if ci, ok = g.ccViaLocal(cell%g.W, cell/g.W); !ok {
			return
		}
	}
	cc.viaVal[l-1][ci] = g.viaCostAt(l, cell)
	cc.viaDirty[ci].Store(1)
	cc.invals.Add(1)
}

// WarmCostCache materializes the cost field on first call — every edge
// value from the direct formula — and afterwards re-sums the prefix runs of
// every dirty line and cell from the write-through values, which are
// already fresh. It must only be called at single-threaded coordinator
// points: it is the one place prefix sums are written, which is what lets
// concurrent readers skip all synchronization on the prefix arrays.
func (g *Graph) WarmCostCache() {
	cc := &g.cc
	build := !cc.built
	if build {
		cc.wireVal = make([][]float64, g.L)
		if cc.full {
			cc.wirePfx = make([][]float64, g.L)
		}
		cc.wireDirty = make([][]atomic.Uint32, g.L)
		for l := 1; l <= g.L; l++ {
			ll, lines := g.ccWireSpan(l)
			if ll < 0 {
				ll = 0
			}
			cc.wireVal[l-1] = make([]float64, lines*ll)
			if cc.full {
				cc.wirePfx[l-1] = make([]float64, lines*(ll+1))
			}
			cc.wireDirty[l-1] = make([]atomic.Uint32, lines)
			for li := range cc.wireDirty[l-1] {
				cc.wireDirty[l-1][li].Store(1)
			}
		}
		cells := cc.win.Area()
		cc.viaVal = make([][]float64, g.L-1)
		for b := 0; b < g.L-1; b++ {
			cc.viaVal[b] = make([]float64, cells)
		}
		if cc.full {
			cc.viaPfx = make([]float64, cells*g.L)
		}
		cc.viaDirty = make([]atomic.Uint32, cells)
		for i := range cc.viaDirty {
			cc.viaDirty[i].Store(1)
		}
		cc.built = true
	}

	warmed := 0
	for l := 1; l <= g.L; l++ {
		ll, lines := g.ccWireSpan(l)
		if ll <= 0 {
			continue
		}
		val := cc.wireVal[l-1]
		dirty := cc.wireDirty[l-1]
		horiz := g.Dir(l) == Horizontal
		for li := 0; li < lines; li++ {
			if dirty[li].Load() == 0 {
				continue
			}
			base := li * ll
			if build {
				for k := 0; k < ll; k++ {
					i := base + k
					if !cc.full {
						var x, y int
						if horiz {
							x, y = cc.win.Lo.X+k, cc.win.Lo.Y+li
						} else {
							x, y = cc.win.Lo.X+li, cc.win.Lo.Y+k
						}
						i = g.wireIndex(l, x, y)
					}
					val[base+k] = g.wireCostAt(l, i)
				}
			}
			if cc.full {
				pfx := cc.wirePfx[l-1][li*(ll+1):]
				sum := 0.0
				pfx[0] = 0
				for k, c := range val[base : base+ll] {
					sum += c
					pfx[k+1] = sum
				}
			}
			dirty[li].Store(0)
			warmed++
		}
	}
	cw := cc.win.Width()
	for ci := 0; ci < cc.win.Area(); ci++ {
		if cc.viaDirty[ci].Load() == 0 {
			continue
		}
		if build {
			gcell := ci
			if !cc.full {
				gcell = (cc.win.Lo.Y+ci/cw)*g.W + cc.win.Lo.X + ci%cw
			}
			for b := 0; b < g.L-1; b++ {
				cc.viaVal[b][ci] = g.viaCostAt(b+1, gcell)
			}
		}
		if cc.full {
			pfx := cc.viaPfx[ci*g.L:]
			sum := 0.0
			pfx[0] = 0
			for b := 0; b < g.L-1; b++ {
				sum += cc.viaVal[b][ci]
				pfx[b+1] = sum
			}
		}
		cc.viaDirty[ci].Store(0)
		warmed++
	}
	cc.warms.Add(int64(warmed))
}

// InvalidateCostCache drops the materialized field entirely; the next
// WarmCostCache rebuilds from scratch. Like Warm, coordinator-only. The
// cache window survives the flush.
func (g *Graph) InvalidateCostCache() {
	g.cc = costCache{
		win:    g.cc.win,
		full:   g.cc.full,
		hits:   g.cc.hits,
		misses: g.cc.misses,
		invals: g.cc.invals,
		warms:  g.cc.warms,
	}
}

// SegCostsAllLayers fills dst (len >= L) with SegCost(l, a, b) for every
// layer: +Inf where the run fights the layer's preferred direction, zero
// everywhere when a == b. One call replaces the per-layer dispatch in the
// pattern DP's candidate evaluation; with a warm cache each feasible layer
// costs two prefix reads.
func (g *Graph) SegCostsAllLayers(a, b geom.Point, dst []float64) {
	inf := math.Inf(1)
	if a == b {
		for l := 0; l < g.L; l++ {
			dst[l] = 0
		}
		return
	}
	var o Dir
	if a.Y == b.Y {
		o = Horizontal
	} else {
		o = Vertical
	}
	for l := 1; l <= g.L; l++ {
		if g.Dir(l) != o {
			dst[l-1] = inf
			continue
		}
		dst[l-1] = g.SegCost(l, a, b)
	}
}
