package grid_test

import (
	"math/rand"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/route"
)

// randomRoute returns an uncommitted route of one or two L-shaped paths:
// a horizontal run, a via stack, a vertical run, all inside win.
func randomRoute(g *grid.Graph, rng *rand.Rand, id int, win geom.Rect) *route.NetRoute {
	nr := &route.NetRoute{NetID: id}
	pick := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	for k := 1 + rng.Intn(2); k > 0; k-- {
		a := geom.Point{X: pick(win.Lo.X, win.Hi.X), Y: pick(win.Lo.Y, win.Hi.Y)}
		b := geom.Point{X: pick(win.Lo.X, win.Hi.X), Y: pick(win.Lo.Y, win.Hi.Y)}
		lh := 1 + 2*rng.Intn((g.L+1)/2) // odd: horizontal
		lv := 2 + 2*rng.Intn(g.L/2)     // even: vertical
		corner := geom.Point{X: b.X, Y: a.Y}
		var p route.Path
		p.AddSeg(lh, a, corner)
		p.AddVia(corner.X, corner.Y, lh, lv)
		p.AddSeg(lv, corner, b)
		nr.Paths = append(nr.Paths, p)
	}
	return nr
}

// TestCostCacheWriteThroughInvariant drives full and windowed caches
// through randomized commit/uncommit/BumpOverflowHistory sequences, warming
// only now and then, and checks after every step that each cached wire and
// via value is bit-equal to the direct formula.
func TestCostCacheWriteThroughInvariant(t *testing.T) {
	for _, windowed := range []bool{false, true} {
		base := grid.NewFromDesign(design.MustGenerate("18test5m", 0.002))
		base.EnableHistory()
		g := base
		win := geom.Rect{Hi: geom.Point{X: g.W - 1, Y: g.H - 1}}
		if windowed {
			win = geom.Rect{Lo: geom.Point{X: 2, Y: 1}, Hi: geom.Point{X: g.W / 2, Y: g.H - 3}}
			g = base.WindowView(win)
		}
		g.WarmCostCache()
		rng := rand.New(rand.NewSource(1))
		var live []*route.NetRoute
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(live) == 0:
				nr := randomRoute(g, rng, step, win)
				nr.Commit(g)
				live = append(live, nr)
			case op < 8:
				i := rng.Intn(len(live))
				live[i].Uncommit(g)
				live = append(live[:i], live[i+1:]...)
			case op < 9:
				g.BumpOverflowHistory(0.5)
			default:
				g.WarmCostCache()
			}
			grid.AssertCostCacheMatchesDirect(t, g)
		}
		for _, nr := range live {
			nr.Uncommit(g)
		}
		grid.AssertCostCacheMatchesDirect(t, g)
		if w, v := base.TotalDemand(); w != 0 || v != 0 {
			t.Fatalf("windowed=%v: demand %d/%d left after uncommitting every route", windowed, w, v)
		}
	}
}
