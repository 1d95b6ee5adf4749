package core

import (
	"fmt"
	"testing"

	"fastgr/internal/design"
	"fastgr/internal/route"
)

// TestCommitTimeEdgeSets: the committed routes' Wirelength, ViaCount and
// HasOverflow answer from the edge sets computed at commit time, so at the
// end of a run they must equal a recompute from Paths (an uncommitted copy
// of the route), for every variant, monolithic and sharded. Validate keeps
// recomputing from Paths, so it must still reject a committed route whose
// Paths were broken after the commit.
func TestCommitTimeEdgeSets(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a design per variant and shard count")
	}
	d := design.MustGenerate("19test9m", 0.001)
	overflowed := 0
	for _, v := range []Variant{CUGR, FastGRL, FastGRH} {
		for _, k := range []int{0, 4} {
			t.Run(fmt.Sprintf("%v/K=%d", v, k), func(t *testing.T) {
				opt := DefaultOptions(v)
				opt.T1, opt.T2 = 4, 25
				opt.Shards = k
				res, err := Route(d, opt)
				if err != nil {
					t.Fatal(err)
				}
				g := res.Grid
				for _, n := range d.Nets {
					r := res.Routes[n.ID]
					if r == nil || !r.Committed() {
						t.Fatalf("net %s not committed at the end of the run", n.Name)
					}
					fresh := &route.NetRoute{NetID: r.NetID, Paths: r.Paths}
					if got, want := r.Wirelength(g), fresh.Wirelength(g); got != want {
						t.Fatalf("net %s: commit-time wirelength %d, from Paths %d", n.Name, got, want)
					}
					if got, want := r.ViaCount(g), fresh.ViaCount(g); got != want {
						t.Fatalf("net %s: commit-time vias %d, from Paths %d", n.Name, got, want)
					}
					if got, want := r.HasOverflow(g), fresh.HasOverflow(g); got != want {
						t.Fatalf("net %s: commit-time overflow %v, from Paths %v", n.Name, got, want)
					} else if got {
						overflowed++
					}
				}

				// Break one committed route's geometry behind its back:
				// Validate must see it even though the commit-time sets
				// still describe the old, connected route.
				for _, n := range d.Nets {
					r := res.Routes[n.ID]
					pins := route.PinTerminals(res.Trees[n.ID])
					if len(r.Paths) < 2 {
						continue
					}
					saved := r.Paths
					r.Paths = saved[1:]
					err := r.Validate(g, pins)
					r.Paths = saved
					if err != nil {
						return
					}
				}
				t.Fatal("no committed route became invalid after dropping a path")
			})
		}
	}
	if overflowed == 0 {
		t.Fatal("no overflowed route: HasOverflow was never exercised")
	}
}
