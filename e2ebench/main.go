// Command e2ebench is the router's end-to-end benchmark. Each workload
// drives the public entry points — core.Route for the routing workloads,
// the fastgrd job API over loopback HTTP for the daemon — measures for a
// fixed window, checks every output, and prints one JSON result line:
//
//	go run . -workload rrr-congested -seed 0 -seconds 15 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 is the separate traced
// run that reports the per-layer metrics, timed from this package around
// the calls into each layer. README.md defines every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fastgr/internal/atomicio"
	"fastgr/internal/core"
)

// execWorkers is the executor width of every route: the host has two
// cores, and one process with at most two busy goroutines loads them.
const execWorkers = 2

// setupRepeats is how often a run sets up; setup_s is the median, which a
// single set-up of a few milliseconds would leave at the mercy of one
// scheduler hiccup.
const setupRepeats = 11

// minPasses is the fewest passes an untraced run makes: every run repeats
// a routing and compares the repeat with the first, and the median of three
// passes ignores one that a slow stretch of the host caught. A traced run
// makes at least one untraced and one traced pass, which it compares.
const minPasses = 3

// workload is one benchmark input set.
type workload struct {
	Name    string
	Why     string
	Designs []designSpec // routing workloads: routed once per pass
	Variant core.Variant
	Shards  int
	Daemon  *daemonSpec // non-nil for the daemon workload
}

var workloads = []*workload{
	{
		Name:    "rrr-congested",
		Why:     "5-layer twin at double utilization: about 2,500 of 4,476 nets ripped up, so maze search and the conflict graph dominate",
		Designs: []designSpec{{"19test9m", 0.005}},
		Variant: core.FastGRL,
	},
	{
		Name:    "pattern-sparse",
		Why:     "9-layer designs with no net to rip up under any seed tried: pattern kernels, planning and commits do the work, the maze none",
		Designs: []designSpec{{"19test7", 0.01}, {"18test10", 0.01}},
		Variant: core.FastGRH,
	},
	{
		Name:    "sharded",
		Why:     "rrr-congested through the sharded pipeline at two shards, isolating shard planning, splitting and stitching",
		Designs: []designSpec{{"19test9m", 0.005}},
		Variant: core.FastGRL,
		Shards:  2,
	},
	{
		Name:    "daemon-small-jobs",
		Why:     "fastgrd serving small uploaded designs to two closed-loop clients: admission, journal, status and guide I/O dominate",
		Variant: core.FastGRL,
		Daemon:  defaultDaemon,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// config is one invocation's settings.
type config struct {
	seed     int64
	window   time.Duration
	trace    bool
	root     string // checkout root: scratch state lives under root/.bench_build
	setups   int    // setup repetitions; setup_s is their median
	traceOut string // where the traced run writes its spans ("" = nowhere)
}

// tally counts operations and those that failed a check.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// keepGoing reports whether to start another pass: always below least
// passes, then while the pass would end less than half a pass past the
// window.
func keepGoing(done, least int, elapsed, last, window time.Duration) bool {
	return done < least || elapsed+last/2 < window
}

// run executes one workload and returns its result; spans of the traced
// run go to cfg.traceOut.
func run(w *workload, cfg config) (result, error) {
	tl := &tally{}
	var values map[string]float64
	var tr *tracer
	var err error
	switch {
	case w.Daemon != nil && cfg.trace:
		values, tr, err = traceDaemon(w, cfg, tl)
	case w.Daemon != nil:
		values, err = runDaemon(w, cfg, tl)
	case cfg.trace:
		values, tr, err = traceRouting(w, cfg, tl)
	default:
		values, err = runRouting(w, cfg, tl)
	}
	if err != nil {
		return result{}, err
	}
	for _, e := range tl.errs {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", e)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		values["bench.fail_frac"] = float64(tl.failed) / float64(max(tl.attempted, 1))
		if tr != nil && cfg.traceOut != "" {
			if err := writeTrace(cfg.traceOut, tr); err != nil {
				return result{}, err
			}
		}
	}
	return result{
		Correct:   tl.failed == 0 && tl.attempted > 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   fill(defs, values),
	}, nil
}

func writeTrace(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := tr.write(f); err != nil {
		return err
	}
	return f.Commit()
}

// meta is the run's context, printed before the result line.
type meta struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
	SourceHash  string `json:"source_sha256"`
	ExecWorkers int    `json:"exec_workers"`
	Clients     int    `json:"clients,omitempty"`
	Runners     int    `json:"runners,omitempty"`
	JobWorkers  int    `json:"job_exec_workers,omitempty"`
}

// sourceHash digests every Go source and go.mod under root, so a result
// names the code it measured even where no git metadata exists.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: rrr-congested, pattern-sparse, sharded, daemon-small-jobs, or all for a table of every metric of every workload")
		seed    = flag.Int64("seed", 0, "workload seed: relabels every design's nets (0 keeps the generated order)")
		seconds = flag.Int("seconds", 20, "measuring window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
		root    = flag.String("root", ".", "checkout root; scratch state goes under <root>/.bench_build")
		gitRev  = flag.String("git-rev", "", "git revision of the measured tree, when known")
	)
	flag.Parse()
	selected := []*workload{workloadByName(*name)}
	if *name == "all" {
		selected = workloads
	}
	if selected[0] == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -workload (rrr-congested, pattern-sparse, sharded, daemon-small-jobs or all), -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		root:   *root,
		setups: setupRepeats,
	}
	m := meta{
		Seed: *seed, Seconds: *seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRevision: *gitRev, SourceHash: sourceHash(*root),
	}
	if *name != "all" {
		res := runOne(selected[0], cfg, m)
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	// Every workload, untraced then traced, as one table.
	ok := true
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.trace = trace
			res := runOne(w, c, m)
			ok = ok && res.Correct
			names := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				names = append(names, k)
			}
			sort.Strings(names)
			fmt.Printf("%s trace=%v correct=%v attempted=%d failed=%d\n", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			for _, k := range names {
				fmt.Printf("  %-24s %16.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne prints the run's metadata line and runs one workload; a run that
// cannot be carried out ends the process.
func runOne(w *workload, cfg config, m meta) result {
	if cfg.trace {
		cfg.traceOut = filepath.Join(cfg.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.Name, cfg.seed))
	}
	m.Workload, m.Trace, m.ExecWorkers = w.Name, cfg.trace, execWorkers
	if w.Daemon != nil {
		m.ExecWorkers = 0
		m.Clients, m.Runners, m.JobWorkers = w.Daemon.Clients, w.Daemon.Runners, w.Daemon.JobWorkers
	}
	mj, _ := json.Marshal(map[string]meta{"meta": m})
	fmt.Println(string(mj))
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	return res
}
