// Package taskflow executes oriented task graphs, playing the role of the
// Taskflow C++ library the paper uses for the rip-up-and-reroute stage: a
// dependency-respecting worker-pool executor plus deterministic makespan
// models for the two parallelization strategies the paper compares — the
// task-graph schedule (FastGR) and the widely adopted batch-barrier
// schedule (the CPU baseline).
package taskflow

import (
	"sync"
	"time"

	"fastgr/internal/fault"
	"fastgr/internal/obs"
	"fastgr/internal/sched"
)

// Run executes fn for every task of the graph with the given number of
// goroutine workers, never running a task before all its predecessors have
// finished. Tasks whose bounding boxes do not conflict may run concurrently;
// because conflicts were defined on the (inflated) regions each task
// touches, concurrent tasks commute and the outcome is deterministic.
func Run(g *sched.Graph, workers int, fn func(task int)) {
	RunWorkers(g, workers, func(_, task int) { fn(task) })
}

// RunWorkers is Run with worker identity: fn receives the id (in
// [0, workers)) of the goroutine executing it, so callers can keep one
// scratch object per worker — e.g. a maze.Search — without locking. A worker
// id is used by exactly one goroutine for the whole run.
func RunWorkers(g *sched.Graph, workers int, fn func(worker, task int)) {
	RunWorkersObserved(g, workers, nil, fn)
}

// RunWorkersObserved is RunWorkers with a flight recorder attached: each
// executed task records its ready-to-start latency (obs.MTaskWaitNs, the
// time between its last predecessor finishing and a worker picking it
// up) and its run duration (obs.MTaskRunNs). A nil or metrics-less
// observer adds no timing calls; observation never changes the schedule
// or the task outcomes.
func RunWorkersObserved(g *sched.Graph, workers int, o *obs.Observer, fn func(worker, task int)) {
	n := len(g.Tasks)
	if n == 0 {
		return
	}
	workers = clampWorkers(workers, n)

	waitHist := o.M().Histogram(obs.MTaskWaitNs, obs.DurationBuckets)
	runHist := o.M().Histogram(obs.MTaskRunNs, obs.DurationBuckets)
	observing := waitHist != nil
	// Wall-clock reads route through the obs stopwatch (detwall): the
	// readings feed histograms only, never the schedule or the results.
	var readyAt []obs.Stopwatch
	if observing {
		readyAt = make([]obs.Stopwatch, n)
	}

	indeg := append([]int(nil), g.Indegree...)
	ready := make(chan int, n)
	for i, d := range indeg {
		if d == 0 {
			if observing {
				readyAt[i] = obs.StartStopwatch()
			}
			ready <- i
		}
	}

	var mu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for t := range ready {
				var run obs.Stopwatch
				if observing {
					waitHist.Observe(readyAt[t].ElapsedNs())
					run = obs.StartStopwatch()
				}
				fn(worker, t)
				if observing {
					runHist.Observe(run.ElapsedNs())
				}
				mu.Lock()
				done++
				for _, v := range g.Succ[t] {
					indeg[v]--
					if indeg[v] == 0 {
						if observing {
							readyAt[v] = obs.StartStopwatch()
						}
						ready <- v
					}
				}
				if done == n {
					close(ready)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if done != n {
		panic("taskflow: executor deadlocked (cyclic graph?)")
	}
}

// FaultReport is the partial-failure outcome of RunWorkersFault: which
// tasks completed, which failed terminally, and which were skipped
// because a dependency failed. Failed, Skipped and Errs are sorted by
// task id, so the report is identical at every worker count (the
// skipped set is a pure function of the failed set and the graph).
type FaultReport struct {
	// Completed counts tasks whose body returned nil.
	Completed int
	// Failed lists tasks whose body ended in a *fault.WorkError
	// (containment exhaustion or a deliberate unit failure).
	Failed []int
	// Skipped lists tasks never run because a transitive predecessor
	// failed (or, on the cancel path, tasks abandoned mid-run).
	Skipped []int
	// Errs holds the terminal error of each failed task, parallel to
	// Failed.
	Errs []*fault.WorkError
	// CancelErr is the first (lowest task id) non-WorkError a body
	// returned; non-nil means the run was aborted, remaining tasks were
	// drained unrun, and the rest of the report describes a partial,
	// timing-dependent state the caller must discard.
	CancelErr error
}

// Failure returns the lowest-task-id terminal error, nil when every
// scheduled task completed.
func (r *FaultReport) Failure() *fault.WorkError {
	if len(r.Errs) == 0 {
		return nil
	}
	return r.Errs[0]
}

// RunWorkersFault is RunWorkersObserved for fallible tasks: each body
// runs under the containment layer (when armed), a task's terminal
// *fault.WorkError poisons its dependents — they are skipped, never
// run — and the run still settles every task, so a failing graph
// completes with a partial-failure report instead of wedging the
// executor. Any other body error cancels the run: remaining ready tasks
// drain unrun and CancelErr reports the cause. Task ids, not goroutine
// interleavings, key injection and ordering, so for a fixed fault seed
// the Completed/Failed/Skipped partition is identical at every worker
// count (except after a cancel, which is an abort path). lane is the
// tracer-lane base of the workers, as par.Pool.SetLane: worker w's
// fault markers land on lane+w, while fn still receives the raw w.
func RunWorkersFault(g *sched.Graph, workers, lane int, o *obs.Observer, c *fault.Containment, fn func(worker, task int) error) FaultReport {
	var rep FaultReport
	n := len(g.Tasks)
	if n == 0 {
		return rep
	}
	workers = clampWorkers(workers, n)

	waitHist := o.M().Histogram(obs.MTaskWaitNs, obs.DurationBuckets)
	runHist := o.M().Histogram(obs.MTaskRunNs, obs.DurationBuckets)
	observing := waitHist != nil
	var readyAt []obs.Stopwatch
	if observing {
		readyAt = make([]obs.Stopwatch, n)
	}

	indeg := append([]int(nil), g.Indegree...)
	poisoned := make([]bool, n)
	ready := make(chan int, n)

	var mu sync.Mutex
	done := 0
	canceled := false

	// settleLocked finishes task t (mu held): it counts toward done,
	// poisons dependents when it did not succeed, and either enqueues or
	// cascades-skips each dependent that becomes ready. The cascade is
	// iterative (an explicit stack) so a long poisoned chain cannot
	// overflow the goroutine stack, and skipping happens here — under the
	// settle lock, in dependency order — so the skipped set never depends
	// on which worker observed the failure.
	var stack []int
	settleLocked := func(t int, ok bool) {
		stack = append(stack[:0], t)
		okAt := map[int]bool{t: ok}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			done++
			if done == n {
				close(ready)
			}
			for _, v := range g.Succ[u] {
				if !okAt[u] {
					poisoned[v] = true
				}
				indeg[v]--
				if indeg[v] != 0 {
					continue
				}
				if poisoned[v] || canceled {
					rep.Skipped = append(rep.Skipped, v)
					okAt[v] = false
					stack = append(stack, v)
					continue
				}
				if observing {
					readyAt[v] = obs.StartStopwatch()
				}
				ready <- v
			}
		}
	}

	for i, d := range indeg {
		if d == 0 {
			if observing {
				readyAt[i] = obs.StartStopwatch()
			}
			ready <- i
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for t := range ready {
				mu.Lock()
				drain := canceled
				mu.Unlock()
				var err error
				if drain {
					// Abort path: don't run, just settle so the run ends.
				} else if c.Enabled() {
					err = c.Run(fault.SiteTask, t, lane+worker, func() error { return fn(worker, t) })
				} else {
					var run obs.Stopwatch
					if observing {
						waitHist.Observe(readyAt[t].ElapsedNs())
						run = obs.StartStopwatch()
					}
					err = fn(worker, t)
					if observing {
						runHist.Observe(run.ElapsedNs())
					}
				}
				mu.Lock()
				switch we := err.(type) {
				case nil:
					if drain {
						rep.Skipped = append(rep.Skipped, t)
						settleLocked(t, false)
					} else {
						rep.Completed++
						settleLocked(t, true)
					}
				case *fault.WorkError:
					rep.Failed = append(rep.Failed, t)
					rep.Errs = append(rep.Errs, we)
					settleLocked(t, false)
				default:
					if !canceled {
						canceled = true
						rep.CancelErr = err
					}
					rep.Skipped = append(rep.Skipped, t)
					settleLocked(t, false)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if done != n {
		panic("taskflow: executor deadlocked (cyclic graph?)")
	}

	sortInts(rep.Failed)
	sortInts(rep.Skipped)
	sortErrs(rep.Errs)
	return rep
}

// clampWorkers bounds the goroutine count to [1, tasks]: a worker beyond
// the task count could never claim a task.
func clampWorkers(workers, tasks int) int {
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortErrs(errs []*fault.WorkError) { fault.SortWorkErrors(errs) }

// Makespan simulates critical-path-first list scheduling of the task graph
// on P workers with the given per-task durations: a task becomes ready when
// its last predecessor finishes, and among ready tasks the one heading the
// longest remaining dependency chain starts first (highest-level-first, the
// textbook DAG scheduling heuristic). This is the deterministic model behind
// the reported parallel-CPU times (see DESIGN.md).
func Makespan(g *sched.Graph, durations []time.Duration, workers int) time.Duration {
	n := len(g.Tasks)
	if n == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	// Upward rank: longest path from the task to any sink, inclusive.
	rank := make([]time.Duration, n)
	order := g.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		var best time.Duration
		for _, v := range g.Succ[u] {
			if rank[v] > best {
				best = rank[v]
			}
		}
		rank[u] = best + durations[u]
	}

	indeg := append([]int(nil), g.Indegree...)
	readyAt := make([]time.Duration, n) // max finish time of predecessors
	finish := make([]time.Duration, n)

	type item struct {
		task int
		at   time.Duration
	}
	ready := make([]item, 0, n)
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, item{i, 0})
		}
	}
	workerFree := make([]time.Duration, workers)
	var makespan time.Duration
	scheduled := 0
	for scheduled < n {
		if len(ready) == 0 {
			panic("taskflow: makespan model starved (cyclic graph?)")
		}
		// Pick the schedulable task with the highest upward rank. A task can
		// start at max(its ready time, earliest worker free time); among
		// tasks startable at the earliest such instant, prefer the longest
		// remaining chain (ties by task ID for determinism).
		w := 0
		for k := 1; k < workers; k++ {
			if workerFree[k] < workerFree[w] {
				w = k
			}
		}
		// Earliest possible start over all ready tasks.
		bestStart := time.Duration(1<<63 - 1)
		for _, it := range ready {
			start := workerFree[w]
			if it.at > start {
				start = it.at
			}
			if start < bestStart {
				bestStart = start
			}
		}
		sel := -1
		for idx, it := range ready {
			start := workerFree[w]
			if it.at > start {
				start = it.at
			}
			if start != bestStart {
				continue
			}
			if sel < 0 || rank[it.task] > rank[ready[sel].task] ||
				(rank[it.task] == rank[ready[sel].task] && it.task < ready[sel].task) {
				sel = idx
			}
		}
		it := ready[sel]
		ready = append(ready[:sel], ready[sel+1:]...)

		start := workerFree[w]
		if it.at > start {
			start = it.at
		}
		end := start + durations[it.task]
		workerFree[w] = end
		finish[it.task] = end
		if end > makespan {
			makespan = end
		}
		scheduled++
		for _, v := range g.Succ[it.task] {
			if finish[it.task] > readyAt[v] {
				readyAt[v] = finish[it.task]
			}
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, item{v, readyAt[v]})
			}
		}
	}
	return makespan
}

// BatchMakespan models the baseline batch-barrier strategy the paper calls
// the "widely adopted batch-based parallelization": batches execute one
// after another with a full barrier between them, and inside a batch tasks
// are statically partitioned round-robin over P workers (OpenMP-style
// static scheduling) — no work stealing, so a skewed partition leaves
// workers idle at the barrier.
func BatchMakespan(batches [][]int, durations []time.Duration, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	var total time.Duration
	for _, batch := range batches {
		load := make([]time.Duration, workers)
		for i, t := range batch {
			load[i%workers] += durations[t]
		}
		var batchEnd time.Duration
		for _, l := range load {
			if l > batchEnd {
				batchEnd = l
			}
		}
		total += batchEnd
	}
	return total
}

// CriticalPath returns the graph's dependency-chain lower bound — no
// schedule on any worker count can beat it.
func CriticalPath(g *sched.Graph, durations []time.Duration) time.Duration {
	order := g.TopoOrder()
	longest := make([]time.Duration, len(g.Tasks))
	var cp time.Duration
	for _, u := range order {
		end := longest[u] + durations[u]
		if end > cp {
			cp = end
		}
		for _, v := range g.Succ[u] {
			if end > longest[v] {
				longest[v] = end
			}
		}
	}
	return cp
}

// SumDurations is the sequential (one worker) execution time.
func SumDurations(durations []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range durations {
		s += d
	}
	return s
}
