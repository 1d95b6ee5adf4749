package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
)

// tiny shrinks a workload to seconds-long smoke size: one small design per
// pass, a two-design pool and four jobs for the daemon.
func tiny(w *workload) *workload {
	t := *w
	if w.Daemon != nil {
		d := *w.Daemon
		d.Pool = []designSpec{{"18test5m", 0.001}, {"18test5m", 0.001001}}
		d.Jobs = 4
		t.Daemon = &d
		return &t
	}
	t.Designs = []designSpec{{"18test5m", 0.001}}
	return &t
}

func smokeConfig(t *testing.T, trace bool) config {
	return config{seed: 3, window: time.Millisecond, trace: trace, root: t.TempDir(), setups: 2}
}

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced, and checks that each named metric is emitted with its unit and
// that every check passed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("routes every workload twice")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, trace)
			cfg.traceOut = filepath.Join(cfg.root, "trace.json")
			res, err := run(tiny(w), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
			if trace {
				if v := res.Metrics["bench.trace_overhead"].Value; v <= 0 {
					t.Errorf("%s: trace overhead %v", w.Name, v)
				}
				if _, err := os.Stat(cfg.traceOut); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
		}
	}
}

func routeTiny(t *testing.T) *routed {
	t.Helper()
	d, err := makeDesign(designSpec{"18test5m", 0.001}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routeDesign(d, routeOptions(workloadByName("rrr-congested"), 0.001))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRouted(r.res, r.guides); err != nil {
		t.Fatalf("intact routing fails the check: %v", err)
	}
	return r
}

// TestDroppedRouteTripsCheck drops one net's route, then one guide: both
// must fail the per-operation correctness check.
func TestDroppedRouteTripsCheck(t *testing.T) {
	r := routeTiny(t)
	id := r.res.Design.Nets[7].ID
	kept := r.res.Routes[id]
	r.res.Routes[id] = nil
	if err := checkRouted(r.res, r.guides); err == nil {
		t.Error("a dropped route passes the check")
	}
	r.res.Routes[id] = kept
	if err := checkRouted(r.res, r.guides[1:]); err == nil {
		t.Error("a dropped guide passes the check")
	}
}

// TestReplayMatchesRoute pins the replay-equality guard on congested and
// hybrid-kernel designs small enough for a unit test.
func TestReplayMatchesRoute(t *testing.T) {
	cases := []struct {
		w  string
		ds designSpec
	}{
		{"rrr-congested", designSpec{"19test9m", 0.001}},
		{"pattern-sparse", designSpec{"18test8", 0.002}},
	}
	for _, c := range cases {
		w := workloadByName(c.w)
		d, err := makeDesign(c.ds, 5)
		if err != nil {
			t.Fatal(err)
		}
		opt := routeOptions(w, c.ds.Scale)
		want, err := routeDesign(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		root := tr.begin("pass", -1, 0)
		got, n, err := replay(d, opt, tr, root)
		tr.end(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameReplay(want.res.Report, got.Report); err != nil {
			t.Error(err)
		}
		_, text, err := emitGuides(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameOutcome(&reference{rep: want.res.Report, text: want.text}, got.Report, text); err != nil {
			t.Error(err)
		}
		if c.w == "rrr-congested" && (want.res.Report.NetsToRipup == 0 || n.Expansions == 0) {
			t.Errorf("%s: no rip-up work (ripup %d, expansions %d); pick a more congested case",
				c.ds.Name, want.res.Report.NetsToRipup, n.Expansions)
		}
		if c.w == "pattern-sparse" && want.res.Report.HybridEdges == 0 {
			t.Errorf("%s: no hybrid-kernel edges", c.ds.Name)
		}
	}
}

// TestReplayRefusesOtherPipelines: options the replay does not reproduce
// are an error, never an approximate replay.
func TestReplayRefusesOtherPipelines(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.001)
	for _, opt := range []core.Options{core.DefaultOptions(core.CUGR), func() core.Options {
		o := core.DefaultOptions(core.FastGRL)
		o.Shards = 2
		return o
	}()} {
		tr := newTracer()
		if _, _, err := replay(d, opt, tr, -1); err == nil {
			t.Errorf("replay accepted %s shards=%d", opt.Variant, opt.Shards)
		}
	}
}

// TestRelabel: seed 0 is the generated design; another seed permutes the
// IDs, keeps ID order in the slice and changes no net's pins.
func TestRelabel(t *testing.T) {
	base := design.MustGenerate("18test5m", 0.001)
	same, _ := makeDesign(designSpec{"18test5m", 0.001}, 0)
	moved, _ := makeDesign(designSpec{"18test5m", 0.001}, 42)
	byName := map[string]*design.Net{}
	for i, n := range base.Nets {
		if same.Nets[i].Name != n.Name || same.Nets[i].ID != n.ID {
			t.Fatalf("seed 0 changed net %d", i)
		}
		byName[n.Name] = n
	}
	changed := 0
	for i, n := range moved.Nets {
		if n.ID != i {
			t.Fatalf("net %s has ID %d at index %d", n.Name, n.ID, i)
		}
		orig := byName[n.Name]
		if orig == nil || len(orig.Pins) != len(n.Pins) {
			t.Fatalf("net %s lost or changed", n.Name)
		}
		for k := range n.Pins {
			if n.Pins[k] != orig.Pins[k] {
				t.Fatalf("net %s pin %d moved", n.Name, k)
			}
		}
		if orig.ID != n.ID {
			changed++
		}
	}
	if changed == 0 {
		t.Error("seed 42 relabels no net")
	}
	if err := moved.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfTime: a span's self time excludes the union of its children,
// overlapping or not.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0, Lane: 1},
		{Name: "a", Start: 30, End: 60, Parent: 0, Lane: 2},
		{Name: "b", Start: 80, End: 90, Parent: 0},
		{Name: "c", Start: 12, End: 20, Parent: 1, Lane: 1},
	}}
	agg := tr.aggregate(0)
	if got := agg["root"].Self; got != 100-50-10 {
		t.Errorf("root self %d, want 40", got)
	}
	if a := agg["a"]; a.Count != 2 || a.Total != 60 || a.Self != 60-8 {
		t.Errorf("a = %+v, want count 2 total 60 self 52", *a)
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json
// and this package's workload and metric tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
