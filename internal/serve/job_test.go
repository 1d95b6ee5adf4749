package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestNormalizeBounds checks the input-boundary bounds on the counts that
// size host resources. It only validates specs; nothing is routed.
func TestNormalizeBounds(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		ok   bool
	}{
		{JobSpec{ExecWorkers: 1024}, true},
		{JobSpec{ExecWorkers: 1025}, false},
		{JobSpec{ExecWorkers: 1 << 30}, false},
		{JobSpec{ExecWorkers: -1}, false},
		{JobSpec{Shards: 4096}, true},
		{JobSpec{Shards: 4097}, false},
	} {
		sp := tc.spec
		if err := sp.normalize(); (err == nil) != tc.ok {
			t.Errorf("normalize(%+v) = %v, want ok=%v", tc.spec, err, tc.ok)
		}
	}
}

// FuzzJobSpec hardens the submit path's input boundary: any request body
// decoded the way handleSubmit decodes it must never panic in normalize,
// and an accepted spec must stay within the documented bounds and resolve
// to options without panicking. Nothing is routed.
func FuzzJobSpec(f *testing.F) {
	rrr := 2
	for _, sp := range []JobSpec{
		{},
		{Design: "19test9m", Scale: 0.003, Router: "fastgrh", Sort: "pins-desc", RRR: &rrr, T1: 4, T2: 40},
		{DesignText: "design x 10 10 3\ncaps 1 8 8\nviacap 4\nend\n", Shards: 2, ExecWorkers: 8},
		{Router: "cugr", MazeAlg: "dijkstra", MazeBudget: 20000, FaultProb: 0.25, FaultSeed: 7, TimeoutMs: 100},
	} {
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"exec_workers": 4096}`))
	f.Add([]byte(`{"scale": -0.5, "shards": -1}`))
	f.Add([]byte(`{"rrr": null, "unknown": 1}`))
	f.Add([]byte(`[1, 2]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		var sp JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			return
		}
		if err := sp.normalize(); err != nil {
			return // rejecting is fine; panicking is not
		}
		if sp.ExecWorkers < 0 || sp.ExecWorkers > 1024 || sp.Shards < 0 || sp.Shards > 4096 {
			t.Fatalf("normalize accepted out-of-bounds counts: %+v", sp)
		}
		if sp.estimateBytes() <= 0 {
			t.Fatalf("accepted spec estimates %d bytes", sp.estimateBytes())
		}
		opt := sp.options()
		if opt.ExecWorkers < 1 || opt.RRRIters < 0 {
			t.Fatalf("accepted spec resolved to options %+v", opt)
		}
	})
}
