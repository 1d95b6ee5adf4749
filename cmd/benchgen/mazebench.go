package main

import (
	"fmt"
	"math/rand"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/grid"
	"fastgr/internal/maze"
	"fastgr/internal/route"
	"fastgr/internal/stt"
)

// minMazeSpeedup is the perf gate for the cost-cache + A* work: the A*
// kernel on a warm cost field must beat the seed configuration (Dijkstra on
// an unwarmed graph) by at least this factor on the recorded workload, with
// strictly fewer settled nodes. tier1.sh runs `benchgen -maze` and fails
// the build below this line.
const minMazeSpeedup = 1.5

type mazeEntry struct {
	NsPerOp int64 `json:"ns_per_op"`
	// Expansions/Pushes are per round (50 nets), identical on every round
	// of a variant: the searches never commit demand, so the grid — and
	// therefore the geometry — is frozen during measurement.
	Expansions int64 `json:"expansions"`
	Pushes     int64 `json:"pushes"`
}

type mazeReport struct {
	Design string  `json:"design"`
	Scale  float64 `json:"scale"`
	Nets   int     `json:"nets"`
	// Variants: algorithm x cost-field state. "dijkstra/cold" is the seed
	// configuration; "astar/warm" is what the router ships.
	Variants map[string]mazeEntry `json:"variants"`

	SpeedupAStarWarm  float64 `json:"speedup_astar_warm_vs_dijkstra_cold"`
	ExpansionRatio    float64 `json:"expansion_ratio_astar_vs_dijkstra"`
	MinSpeedupAllowed float64 `json:"min_speedup_allowed"`

	// Meta fingerprints the measurement host for -regress (stamp.go).
	Meta BenchMeta `json:"meta"`
}

// runMaze measures the maze kernel over {dijkstra,astar} x {cold,warm
// cost cache} on the hostpar maze workload (50 nets of 18test5m, inflated
// windows, seeded congestion) and writes BENCH_maze.json. It returns an
// error — failing the build — when the A*+warm-cache variant does not
// clear the speedup gate against the seed Dijkstra-cold configuration.
func runMaze(out string) error {
	const reps, iters = 6, 2
	d := design.MustGenerate("18test5m", hostparScale)

	// Two graphs with identical congestion: variants must not share one
	// because warming is a persistent graph-state change.
	mkGraph := func() *grid.Graph {
		g := grid.NewFromDesign(d)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 400; i++ {
			l := 2 + rng.Intn(3)
			x, y := rng.Intn(g.W-1), rng.Intn(g.H-1)
			if g.HasWireEdge(l, x, y) {
				if g.Dir(l) == grid.Horizontal {
					g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x + 1, Y: y}, rng.Intn(10))
				} else {
					g.AddSegDemand(l, geom.Point{X: x, Y: y}, geom.Point{X: x, Y: y + 1}, rng.Intn(10))
				}
			}
		}
		return g
	}
	gCold, gWarm := mkGraph(), mkGraph()
	gWarm.WarmCostCache()

	nets := d.Nets[:50]
	pins := make([][]geom.Point3, len(nets))
	wins := make([]geom.Rect, len(nets))
	for i, n := range nets {
		pins[i] = route.PinTerminals(stt.Build(n))
		wins[i] = n.BBox().Inflate(4).ClampTo(gCold.W, gCold.H)
	}

	type variant struct {
		key string
		g   *grid.Graph
		alg maze.Algorithm
	}
	variants := []variant{
		{"dijkstra/cold", gCold, maze.Dijkstra},
		{"dijkstra/warm", gWarm, maze.Dijkstra},
		{"astar/cold", gCold, maze.AStar},
		{"astar/warm", gWarm, maze.AStar},
	}

	round := func(v variant, s *maze.Search) (maze.Stats, error) {
		var total maze.Stats
		for j := range nets {
			_, st, err := s.RouteNet(v.g, nets[j].ID, pins[j], wins[j])
			if err != nil {
				return total, err
			}
			total.Expansions += st.Expansions
			total.Pushes += st.Pushes
		}
		return total, nil
	}

	rep := mazeReport{
		Design:            "18test5m",
		Scale:             hostparScale,
		Nets:              len(nets),
		Variants:          map[string]mazeEntry{},
		MinSpeedupAllowed: minMazeSpeedup,
	}

	// One untimed round per variant collects the (round-invariant)
	// expansion counts; the timed rounds interleave all variants
	// round-robin so clock drift hits each one equally.
	sides := make([]side, len(variants))
	for i, v := range variants {
		s := maze.NewSearch()
		s.SetAlgorithm(v.alg)
		st, err := round(v, s)
		if err != nil {
			return fmt.Errorf("maze bench %s: %w", v.key, err)
		}
		rep.Variants[v.key] = mazeEntry{Expansions: st.Expansions, Pushes: st.Pushes}
		sides[i] = wallSide(func() error {
			_, err := round(v, s)
			return err
		})
	}
	samples, err := sampleRounds(reps, iters, sides...)
	if err != nil {
		return err
	}
	ns := minPerSide(samples)
	for i, v := range variants {
		e := rep.Variants[v.key]
		e.NsPerOp = ns[i]
		rep.Variants[v.key] = e
	}

	seed, ship := rep.Variants["dijkstra/cold"], rep.Variants["astar/warm"]
	rep.SpeedupAStarWarm = float64(seed.NsPerOp) / float64(ship.NsPerOp)
	rep.ExpansionRatio = float64(ship.Expansions) / float64(seed.Expansions)

	rep.Meta = currentBenchMeta()
	if err := writeRecord(out, "maze kernel benchmark", rep); err != nil {
		return err
	}
	if rep.SpeedupAStarWarm < minMazeSpeedup {
		return fmt.Errorf("astar+warm-cache maze kernel is only %.2fx the seed dijkstra-cold (%d vs %d ns/op); the gate is %.1fx",
			rep.SpeedupAStarWarm, ship.NsPerOp, seed.NsPerOp, minMazeSpeedup)
	}
	if ship.Expansions >= seed.Expansions {
		return fmt.Errorf("astar settled %d nodes, not fewer than dijkstra's %d", ship.Expansions, seed.Expansions)
	}
	return nil
}
