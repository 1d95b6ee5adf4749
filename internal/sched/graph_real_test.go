package sched_test

import (
	"testing"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/sched"
)

// TestBuildGraphMatchesReferenceOnRipup feeds the equivalence check the
// two task lists of a real first rip-up iteration on 19test9m: the maze
// windows the execution graph conflicts on and the bounding boxes the
// scheduling models use, in the HPWL order the RRR stage sorts them into.
func TestBuildGraphMatchesReferenceOnRipup(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a full design")
	}
	d := design.MustGenerate("19test9m", 0.005)
	opt := core.DefaultOptions(core.FastGRL)
	opt.RRRIters = 0
	res, err := core.Route(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	var violating []*design.Net
	for _, n := range d.Nets {
		if rt := res.Routes[n.ID]; rt != nil && rt.HasOverflow(res.Grid) {
			violating = append(violating, n)
		}
	}
	if len(violating) < 100 {
		t.Fatalf("only %d violating nets; the check needs a congested iteration", len(violating))
	}
	sched.SortNets(violating, opt.Scheme)
	g := res.Grid
	windows := make([]sched.Task, len(violating))
	boxes := make([]sched.Task, len(violating))
	for i, n := range violating {
		windows[i] = sched.Task{ID: i, BBox: n.BBox().Inflate(opt.MazeMargin).ClampTo(g.W, g.H), Payload: n}
		boxes[i] = sched.Task{ID: i, BBox: n.BBox(), Payload: n}
	}
	sched.AssertGraphMatchesReference(t, windows, g.W, g.H)
	sched.AssertGraphMatchesReference(t, boxes, g.W, g.H)
}
