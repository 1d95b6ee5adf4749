package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"fastgr/internal/design"
	"fastgr/internal/geom"
	"fastgr/internal/obs"
)

func mkNet(id, pins int, lo, hi geom.Point) *design.Net {
	n := &design.Net{ID: id, Name: "n"}
	n.Pins = append(n.Pins, design.Pin{Pos: lo, Layer: 1}, design.Pin{Pos: hi, Layer: 1})
	for len(n.Pins) < pins {
		n.Pins = append(n.Pins, design.Pin{Pos: lo, Layer: 2})
	}
	return n
}

func TestSortSchemes(t *testing.T) {
	nets := []*design.Net{
		mkNet(0, 2, geom.Point{X: 0, Y: 0}, geom.Point{X: 9, Y: 9}),  // hpwl 18, area 100
		mkNet(1, 5, geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}),  // hpwl 2, area 4
		mkNet(2, 3, geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 19}), // hpwl 23, area 100
	}
	cases := []struct {
		s    Scheme
		want []int // net IDs in sorted order
	}{
		{PinsAsc, []int{0, 2, 1}},
		{PinsDesc, []int{1, 2, 0}},
		{HPWLAsc, []int{1, 0, 2}},
		{HPWLDesc, []int{2, 0, 1}},
		{AreaAsc, []int{1, 0, 2}}, // tie 100 broken by ID
		{AreaDesc, []int{0, 2, 1}},
	}
	for _, c := range cases {
		ns := append([]*design.Net(nil), nets...)
		SortNets(ns, c.s)
		for i, want := range c.want {
			if ns[i].ID != want {
				t.Errorf("%v: position %d has net %d, want %d", c.s, i, ns[i].ID, want)
			}
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	for _, s := range Schemes {
		if s.String() == "" {
			t.Error("empty scheme name")
		}
	}
	if Scheme(99).String() != "scheme(99)" {
		t.Error("unknown scheme string wrong")
	}
	if len(Schemes) != 6 {
		t.Fatalf("Table IV has 6 schemes, found %d", len(Schemes))
	}
}

func taskAt(id int, lo, hi geom.Point) Task {
	return Task{ID: id, BBox: geom.NewRect(lo, hi)}
}

func TestExtractBatchesNoIntraBatchConflicts(t *testing.T) {
	tasks := []Task{
		taskAt(0, geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 4}),
		taskAt(1, geom.Point{X: 2, Y: 2}, geom.Point{X: 6, Y: 6}), // conflicts 0
		taskAt(2, geom.Point{X: 8, Y: 8}, geom.Point{X: 9, Y: 9}),
		taskAt(3, geom.Point{X: 3, Y: 3}, geom.Point{X: 5, Y: 5}), // conflicts 0,1
	}
	batches := ExtractBatches(tasks)
	total := 0
	for _, b := range batches {
		total += len(b)
		for i := 0; i < len(b); i++ {
			for j := i + 1; j < len(b); j++ {
				if b[i].BBox.Overlaps(b[j].BBox) {
					t.Fatalf("tasks %d,%d conflict inside one batch", b[i].ID, b[j].ID)
				}
			}
		}
	}
	if total != len(tasks) {
		t.Fatalf("batches cover %d of %d tasks", total, len(tasks))
	}
	// Greedy from sorted order: first batch is {0,2}.
	if len(batches[0]) != 2 || batches[0][0].ID != 0 || batches[0][1].ID != 2 {
		t.Fatalf("unexpected first batch: %+v", batches[0])
	}
}

func TestExtractBatchesProperty(t *testing.T) {
	f := func(raw []struct{ X, Y, W, H uint8 }) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		tasks := make([]Task, len(raw))
		for i, r := range raw {
			lo := geom.Point{X: int(r.X) % 100, Y: int(r.Y) % 100}
			hi := geom.Point{X: lo.X + int(r.W)%20, Y: lo.Y + int(r.H)%20}
			tasks[i] = taskAt(i, lo, hi)
		}
		batches := ExtractBatches(tasks)
		seen := map[int]bool{}
		for _, b := range batches {
			if len(b) == 0 {
				return false // empty batches would loop forever upstream
			}
			for i := range b {
				if seen[b[i].ID] {
					return false
				}
				seen[b[i].ID] = true
				for j := i + 1; j < len(b); j++ {
					if b[i].BBox.Overlaps(b[j].BBox) {
						return false
					}
				}
			}
		}
		return len(seen) == len(tasks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGraphOrientationRules(t *testing.T) {
	tasks := []Task{
		taskAt(0, geom.Point{X: 0, Y: 0}, geom.Point{X: 4, Y: 4}),
		taskAt(1, geom.Point{X: 2, Y: 2}, geom.Point{X: 6, Y: 6}), // vs 0 and 3
		taskAt(2, geom.Point{X: 20, Y: 20}, geom.Point{X: 24, Y: 24}),
		taskAt(3, geom.Point{X: 5, Y: 5}, geom.Point{X: 7, Y: 7}), // vs 1
	}
	g := BuildGraph(tasks, 32, 32)
	// Root batch is greedy in order: 0 in; 1 conflicts 0 -> out; 2 in; 3
	// conflicts nothing in root (0 and 2)? bbox(3)=5..7 overlaps bbox(0)=0..4? no. So 3 in root.
	if !g.RootBatch[0] || g.RootBatch[1] || !g.RootBatch[2] || !g.RootBatch[3] {
		t.Fatalf("root batch wrong: %v", g.RootBatch)
	}
	// Edge 0-1: root->nonroot = 0->1. Edge 1-3: 3 in root -> 3->1.
	hasEdge := func(from, to int) bool {
		for _, v := range g.Succ[from] {
			if v == to {
				return true
			}
		}
		return false
	}
	if !hasEdge(0, 1) || hasEdge(1, 0) {
		t.Fatal("edge 0-1 misoriented")
	}
	if !hasEdge(3, 1) || hasEdge(1, 3) {
		t.Fatal("edge 1-3 misoriented")
	}
	if g.Edges != 2 {
		t.Fatalf("edges = %d, want 2", g.Edges)
	}
	if g.Indegree[1] != 2 {
		t.Fatalf("indegree of task 1 = %d, want 2", g.Indegree[1])
	}
}

func TestBuildGraphNonRootPairOrientation(t *testing.T) {
	// Three mutually overlapping tasks: only the first enters the root
	// batch; the 1-2 pair is non-root/non-root and goes small ID -> large.
	tasks := []Task{
		taskAt(0, geom.Point{X: 0, Y: 0}, geom.Point{X: 9, Y: 9}),
		taskAt(1, geom.Point{X: 1, Y: 1}, geom.Point{X: 8, Y: 8}),
		taskAt(2, geom.Point{X: 2, Y: 2}, geom.Point{X: 7, Y: 7}),
	}
	g := BuildGraph(tasks, 16, 16)
	found := false
	for _, v := range g.Succ[1] {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("non-root pair 1-2 not oriented by task ID")
	}
	for _, v := range g.Succ[2] {
		if v == 1 {
			t.Fatal("backward edge 2->1 present")
		}
	}
}

func TestTopoOrderValid(t *testing.T) {
	f := func(raw []struct{ X, Y, W, H uint8 }) bool {
		if len(raw) > 50 {
			raw = raw[:50]
		}
		tasks := make([]Task, len(raw))
		for i, r := range raw {
			lo := geom.Point{X: int(r.X) % 64, Y: int(r.Y) % 64}
			hi := geom.Point{X: lo.X + int(r.W)%16, Y: lo.Y + int(r.H)%16}
			tasks[i] = taskAt(i, lo, hi)
		}
		g := BuildGraph(tasks, 80, 80)
		order := g.TopoOrder()
		if len(order) != len(tasks) {
			return false
		}
		pos := make([]int, len(tasks))
		for i, u := range order {
			pos[u] = i
		}
		for u := range g.Succ {
			for _, v := range g.Succ[u] {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestConflictPairsCompleteness(t *testing.T) {
	// Binning must find exactly the same pairs as the quadratic check,
	// including boxes spanning many bins.
	tasks := []Task{
		taskAt(0, geom.Point{X: 0, Y: 0}, geom.Point{X: 63, Y: 2}), // long horizontal
		taskAt(1, geom.Point{X: 30, Y: 0}, geom.Point{X: 33, Y: 40}),
		taskAt(2, geom.Point{X: 50, Y: 50}, geom.Point{X: 55, Y: 55}),
		taskAt(3, geom.Point{X: 0, Y: 1}, geom.Point{X: 1, Y: 90}),
		taskAt(4, geom.Point{X: 54, Y: 54}, geom.Point{X: 60, Y: 60}),
	}
	g := BuildGraph(tasks, 100, 100)
	got := map[[2]int]bool{}
	for from, succ := range g.Succ {
		for _, to := range succ {
			got[[2]int{geom.Min(from, to), geom.Max(from, to)}] = true
		}
	}
	want := map[[2]int]bool{}
	for i := range tasks {
		for j := i + 1; j < len(tasks); j++ {
			if tasks[i].BBox.Overlaps(tasks[j].BBox) {
				want[[2]int{i, j}] = true
			}
		}
	}
	if g.Edges != len(want) || len(got) != len(want) {
		t.Fatalf("binned pairs %v (%d edges) != brute-force %v", got, g.Edges, want)
	}
	for p := range got {
		if !want[p] {
			t.Fatalf("spurious pair %v", p)
		}
	}
}

// refBuildGraph is the conflict-graph construction BuildGraph replaced,
// kept verbatim as the equivalence reference: a binned root batch, then
// every same-bin pair materialised, sorted, deduplicated and oriented.
func refBuildGraph(tasks []Task, gridW, gridH int) *Graph {
	g := &Graph{
		Tasks:     tasks,
		Succ:      make([][]int, len(tasks)),
		Indegree:  make([]int, len(tasks)),
		RootBatch: make([]bool, len(tasks)),
	}
	occ := newBinnedOccupancy(gridW, gridH)
	for i, t := range tasks {
		if !occ.conflicts(t.BBox) {
			g.RootBatch[i] = true
			occ.add(t.BBox)
		}
	}
	for _, pair := range refConflictPairs(tasks, gridW, gridH) {
		i, j := pair[0], pair[1]
		var from, to int
		switch {
		case g.RootBatch[i]:
			from, to = i, j
		case g.RootBatch[j]:
			from, to = j, i
		case i < j:
			from, to = i, j
		default:
			from, to = j, i
		}
		g.Succ[from] = append(g.Succ[from], to)
		g.Indegree[to]++
		g.Edges++
	}
	return g
}

func refConflictPairs(tasks []Task, gridW, gridH int) [][2]int {
	binsX := (geom.Max(gridW, 1) >> binShift) + 1
	binsY := (geom.Max(gridH, 1) >> binShift) + 1
	bins := make([][]int, binsX*binsY)
	for i, t := range tasks {
		r := t.BBox
		for by := geom.Max(0, r.Lo.Y>>binShift); by <= (r.Hi.Y>>binShift) && by < binsY; by++ {
			for bx := geom.Max(0, r.Lo.X>>binShift); bx <= (r.Hi.X>>binShift) && bx < binsX; bx++ {
				bins[by*binsX+bx] = append(bins[by*binsX+bx], i)
			}
		}
	}
	var pairs [][2]int
	for _, bin := range bins {
		for a := 0; a < len(bin); a++ {
			for b := a + 1; b < len(bin); b++ {
				i, j := bin[a], bin[b]
				if i > j {
					i, j = j, i
				}
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	out := pairs[:0]
	prev := [2]int{-1, -1}
	for _, p := range pairs {
		if p == prev {
			continue
		}
		prev = p
		if tasks[p[0]].BBox.Overlaps(tasks[p[1]].BBox) {
			out = append(out, p)
		}
	}
	return out
}

// AssertGraphMatchesReference fails t unless BuildGraph and the reference
// construction agree on every Succ list (order included), Indegree,
// RootBatch and Edges. Exported for the external test that feeds it real
// rip-up task lists.
func AssertGraphMatchesReference(t *testing.T, tasks []Task, gridW, gridH int) {
	t.Helper()
	got, want := BuildGraph(tasks, gridW, gridH), refBuildGraph(tasks, gridW, gridH)
	if got.Edges != want.Edges {
		t.Fatalf("%d tasks: edges %d, reference %d", len(tasks), got.Edges, want.Edges)
	}
	if !reflect.DeepEqual(got.RootBatch, want.RootBatch) {
		t.Fatalf("%d tasks: root batch differs from reference", len(tasks))
	}
	if !reflect.DeepEqual(got.Indegree, want.Indegree) {
		t.Fatalf("%d tasks: indegrees differ from reference", len(tasks))
	}
	for i := range want.Succ {
		if !reflect.DeepEqual(got.Succ[i], want.Succ[i]) {
			t.Fatalf("%d tasks: Succ[%d] = %v, reference %v", len(tasks), i, got.Succ[i], want.Succ[i])
		}
	}
}

// TestBuildGraphMatchesReference checks BuildGraph against the frozen
// pair-materialising construction on random task sets: dense overlapping
// clusters, long boxes straddling many bins, degenerate point and line
// boxes, and boxes running past the grid edge.
func TestBuildGraphMatchesReference(t *testing.T) {
	AssertGraphMatchesReference(t, nil, 10, 10)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		gridW, gridH := 1+rng.Intn(120), 1+rng.Intn(120)
		tasks := make([]Task, rng.Intn(300))
		for i := range tasks {
			lo := geom.Point{X: rng.Intn(gridW), Y: rng.Intn(gridH)}
			var hi geom.Point
			switch rng.Intn(4) {
			case 0: // small, overlapping cluster boxes
				hi = geom.Point{X: lo.X + rng.Intn(6), Y: lo.Y + rng.Intn(6)}
			case 1: // long boxes straddling bins, possibly past the edge
				hi = geom.Point{X: lo.X + rng.Intn(80), Y: lo.Y + rng.Intn(80)}
			case 2: // degenerate: a point
				hi = lo
			default: // degenerate: a one-cell-wide line
				if rng.Intn(2) == 0 {
					hi = geom.Point{X: lo.X, Y: lo.Y + rng.Intn(40)}
				} else {
					hi = geom.Point{X: lo.X + rng.Intn(40), Y: lo.Y}
				}
			}
			tasks[i] = taskAt(i, lo, hi)
		}
		AssertGraphMatchesReference(t, tasks, gridW, gridH)
		if got, want := ExtractBatches(tasks), refExtractBatches(tasks); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ExtractBatches differs from reference", trial)
		}
	}
}

// refExtractBatches is ExtractBatches before its storage reuse.
func refExtractBatches(tasks []Task) [][]Task {
	occ := newBinnedOccupancy(taskBounds(tasks))
	remaining := append([]Task(nil), tasks...)
	var batches [][]Task
	for len(remaining) > 0 {
		occ.reset()
		var batch []Task
		var rest []Task
		for _, t := range remaining {
			if occ.conflicts(t.BBox) {
				rest = append(rest, t)
				continue
			}
			batch = append(batch, t)
			occ.add(t.BBox)
		}
		batches = append(batches, batch)
		remaining = rest
	}
	return batches
}

func TestGraphOnGeneratedDesign(t *testing.T) {
	d := design.MustGenerate("18test8m", 0.002)
	nets := append([]*design.Net(nil), d.Nets[:300]...)
	SortNets(nets, HPWLAsc)
	tasks := make([]Task, len(nets))
	for i, n := range nets {
		tasks[i] = Task{ID: i, BBox: n.BBox(), Payload: n}
	}
	g := BuildGraph(tasks, d.GridW, d.GridH)
	g.TopoOrder() // must not panic
	if g.Edges == 0 {
		t.Fatal("no conflicts in a clustered design is implausible")
	}
	batches := ExtractBatches(tasks)
	if len(batches) < 2 {
		t.Fatal("expected multiple batches in a clustered design")
	}
}

// TestObserveBatches checks the batch-size histogram and batch counter,
// and that a nil registry is a no-op.
func TestObserveBatches(t *testing.T) {
	batches := [][]Task{
		make([]Task, 3),
		make([]Task, 1),
		make([]Task, 7),
	}
	ObserveBatches(nil, batches) // must not panic

	r := obs.NewRegistry()
	ObserveBatches(r, batches)
	s := r.Snapshot()
	if got := s.Counters[obs.MSchedBatches]; got != 3 {
		t.Errorf("batch counter = %d, want 3", got)
	}
	h := s.Histograms[obs.MBatchSize]
	if h.Count != 3 || h.Sum != 11 || h.Min != 1 || h.Max != 7 {
		t.Errorf("batch-size histogram = %+v, want count=3 sum=11 min=1 max=7", h)
	}
}
