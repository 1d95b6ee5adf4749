package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"fastgr/internal/atomicio"
)

// benchSchemaVersion versions the BENCH_*.json layout. Bump it when a
// report's fields change meaning — -regress refuses to compare across
// versions instead of producing false alarms.
const benchSchemaVersion = 1

// BenchMeta stamps every BENCH_*.json with the context the numbers were
// measured in. Wall-clock benchmarks are host measurements: comparing a
// 4-core container run against a 32-core bare-metal baseline produces
// noise dressed up as regression, so -regress only diffs runs whose
// fingerprints agree.
type BenchMeta struct {
	SchemaVersion int    `json:"schema_version"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
	GoVersion     string `json:"go_version"`
	// Git is `git describe --always --dirty` at measurement time, or
	// "unknown" outside a repository. Informational only — it never
	// gates a comparison.
	Git string `json:"git"`
}

func currentBenchMeta() BenchMeta {
	git := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			git = s
		}
	}
	return BenchMeta{
		SchemaVersion: benchSchemaVersion,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		Git:           git,
	}
}

// comparableWith reports whether numbers measured under m may be diffed
// against numbers measured under base, and if not, why.
func (m BenchMeta) comparableWith(base BenchMeta) (bool, string) {
	switch {
	case m.SchemaVersion != base.SchemaVersion:
		return false, fmt.Sprintf("schema v%d vs baseline v%d", m.SchemaVersion, base.SchemaVersion)
	case m.GoMaxProcs != base.GoMaxProcs || m.NumCPU != base.NumCPU:
		return false, fmt.Sprintf("host %dx%d procs vs baseline %dx%d",
			m.GoMaxProcs, m.NumCPU, base.GoMaxProcs, base.NumCPU)
	case m.GoVersion != base.GoVersion:
		return false, fmt.Sprintf("toolchain %s vs baseline %s", m.GoVersion, base.GoVersion)
	}
	return true, ""
}

// writeRecord writes a benchmark record as indented JSON to out
// (crash-safely) or, when out is empty, to stdout.
func writeRecord(out, what string, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := atomicio.WriteFile(out, data); err != nil {
		return err
	}
	fmt.Printf("%s record written to %s\n", what, out)
	return nil
}
