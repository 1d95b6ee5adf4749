package core_test

// External test package: the guide serializer imports core, so comparing
// guide bytes from inside package core would be an import cycle.

import (
	"bytes"
	"fmt"
	"testing"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/guide"
)

// crossDesign is a crafted worst case for the splitter: every net's
// bounding box straddles both the vertical and the horizontal center
// cuts, so nothing is intra-leaf and every net goes through the
// fragment/stitch/reconcile machinery. Capacities are tight enough to
// leave rip-up work.
func crossDesign() *design.Design {
	d := &design.Design{
		Name:          "crossall",
		GridW:         64,
		GridH:         64,
		NumLayers:     5,
		LayerCapacity: []int{0, 3, 3, 4, 4},
		ViaCapacity:   6,
	}
	for i := 0; i < 48; i++ {
		n := &design.Net{ID: i, Name: fmt.Sprintf("x%d", i)}
		// Pins on all four sides of the center, so the bbox spans both
		// cut axes regardless of where the pin-median cut lands.
		n.Pins = []design.Pin{
			{Pos: geom.Point{X: 4 + i%9, Y: 28 + i%7}, Layer: 1},
			{Pos: geom.Point{X: 58 - i%11, Y: 30 + i%5}, Layer: 1 + i%2},
			{Pos: geom.Point{X: 29 + i%5, Y: 3 + i%13}, Layer: 1},
			{Pos: geom.Point{X: 31 - i%3, Y: 60 - i%9}, Layer: 1 + (i/2)%2},
		}
		d.Nets = append(d.Nets, n)
	}
	return d
}

func guideBytes(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := guide.Write(&buf, guide.FromResult(res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardDeterminism is the sharded pipeline's output contract: for
// every variant, the emitted guides must be byte-identical for every
// shard count and every worker count — K and ExecWorkers schedule work,
// they never steer it. The crafted all-boundary design additionally
// forces every net through the split/stitch/reconcile path.
func TestShardDeterminism(t *testing.T) {
	designs := []*design.Design{
		design.MustGenerate("18test5m", 0.005),
		crossDesign(),
	}
	for _, d := range designs {
		for _, v := range []core.Variant{core.CUGR, core.FastGRL, core.FastGRH} {
			var base []byte
			var baseRep core.Report
			for _, shards := range []int{1, 2, 4} {
				for _, w := range []int{1, 2, 8} {
					opt := core.DefaultOptions(v)
					opt.T1, opt.T2 = 4, 40
					opt.Shards = shards
					opt.ExecWorkers = w
					res, err := core.Route(d, opt)
					if err != nil {
						t.Fatalf("%s %v shards=%d workers=%d: %v", d.Name, v, shards, w, err)
					}
					if res.Report.Shards != shards || res.Report.ShardLeaves < 2 {
						t.Fatalf("%s %v: sharded run reported Shards=%d ShardLeaves=%d",
							d.Name, v, res.Report.Shards, res.Report.ShardLeaves)
					}
					if d.Name == "crossall" {
						if res.Report.BoundaryNets != len(d.Nets) {
							t.Fatalf("%s %v: %d of %d nets classified boundary, want all",
								d.Name, v, res.Report.BoundaryNets, len(d.Nets))
						}
					} else if res.Report.BoundaryNets == 0 {
						t.Fatalf("%s %v: no boundary nets; test exercises no stitching", d.Name, v)
					}
					gb := guideBytes(t, res)
					if base == nil {
						base, baseRep = gb, res.Report
						continue
					}
					if !bytes.Equal(base, gb) {
						t.Errorf("%s %v: guides differ between (shards=1, workers=1) and (shards=%d, workers=%d)",
							d.Name, v, shards, w)
					}
					if baseRep.Quality != res.Report.Quality ||
						baseRep.Times.Pattern != res.Report.Times.Pattern ||
						baseRep.Times.Maze != res.Report.Times.Maze ||
						baseRep.ReconcileTime != res.Report.ReconcileTime ||
						baseRep.BoundaryNets != res.Report.BoundaryNets ||
						baseRep.BoundaryReroutes != res.Report.BoundaryReroutes {
						t.Errorf("%s %v shards=%d workers=%d: reported outcome drifted:\n%+v\nvs\n%+v",
							d.Name, v, shards, w, baseRep, res.Report)
					}
				}
			}
		}
	}
}

// TestShardZeroIsMonolithic pins the dispatch contract: Shards = 0 runs
// the whole-grid plan and reports no shard accounting.
func TestShardZeroIsMonolithic(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.005)
	opt := core.DefaultOptions(core.FastGRH)
	opt.T1, opt.T2 = 4, 40
	res, err := core.Route(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Shards != 0 || r.ShardLeaves != 0 || r.BoundaryNets != 0 ||
		r.BoundaryReroutes != 0 || r.ReconcileTime != 0 {
		t.Fatalf("monolithic run leaked shard accounting: %+v", r)
	}
	if r.PeakHeapBytes == 0 {
		t.Fatal("PeakHeapBytes never sampled")
	}
}
