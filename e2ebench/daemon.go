package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/obs"
	"fastgr/internal/serve"
)

// daemonSpec shapes the daemon workload: closed-loop clients upload
// designs from a pool to a fresh fastgrd per session, each waiting for its
// job's guides before submitting the next.
type daemonSpec struct {
	Pool       []designSpec // uploaded designs; job i uploads Pool[i%len(Pool)]
	Jobs       int          // jobs per session
	Clients    int
	Runners    int
	JobWorkers int           // exec_workers of every job
	Poll       time.Duration // status poll interval
}

var defaultDaemon = &daemonSpec{
	Pool: []designSpec{
		{"18test5m", 0.001}, {"18test5m", 0.001001}, {"18test5m", 0.001002}, {"18test5m", 0.001003},
		{"18test5m", 0.002}, {"18test5m", 0.002001}, {"18test5m", 0.002002}, {"18test5m", 0.002003},
	},
	Jobs:       50,
	Clients:    2,
	Runners:    2,
	JobWorkers: 1,
	Poll:       2 * time.Millisecond,
}

// jobDeadline bounds how long a client waits for one job, so a daemon that
// stops finishing jobs fails the run instead of hanging it.
const jobDeadline = time.Minute

// upload is one pool design: its text and the guides and score a direct
// core.Route of that text must give.
type upload struct {
	text   string
	guides []byte
	score  float64
}

// daemon is one started fastgrd with its state directory and registry.
type daemon struct {
	srv *serve.Server
	dir string
	reg *obs.Registry
}

func startDaemon(spec *daemonSpec, dir string) (*daemon, error) {
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		Dir:     dir,
		Runners: spec.Runners,
		Obs:     &obs.Observer{Metrics: reg, Health: obs.NewHealth()},
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	return &daemon{srv: srv, dir: dir, reg: reg}, nil
}

// stop drains the daemon (every job is terminal by then) and removes its
// state directory.
func (d *daemon) stop() error {
	err := d.srv.Drain(30 * time.Second)
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

// daemonRun holds the state shared by the sessions of one run.
type daemonRun struct {
	spec    *daemonSpec
	cfg     config
	uploads []upload
	next    int // sessions started, for state directory names
}

func (r *daemonRun) stateDir() string {
	r.next++
	return filepath.Join(r.cfg.root, ".bench_build", "run", fmt.Sprintf("daemon-%d-%d", os.Getpid(), r.next))
}

// daemonSetup generates the pool's upload texts and starts a daemon,
// cfg.setups times; the last daemon serves the first session. The
// reference routings are built afterwards, outside the set-up time.
func daemonSetup(w *workload, cfg config) (*daemonRun, *daemon, []float64, error) {
	r := &daemonRun{spec: w.Daemon, cfg: cfg}
	var times []float64
	var d *daemon
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, nil, err
			}
		}
		start := time.Now()
		r.uploads = r.uploads[:0]
		for _, ds := range r.spec.Pool {
			des, err := makeDesign(ds, cfg.seed)
			if err != nil {
				return nil, nil, nil, err
			}
			var b strings.Builder
			if err := design.Write(&b, des); err != nil {
				return nil, nil, nil, err
			}
			r.uploads = append(r.uploads, upload{text: b.String()})
		}
		var err error
		if d, err = startDaemon(r.spec, r.stateDir()); err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	for i := range r.uploads {
		if err := r.reference(&r.uploads[i], w.Variant); err != nil {
			d.stop()
			return nil, nil, nil, err
		}
	}
	return r, d, times, nil
}

// reference routes an upload directly, with the options the daemon
// derives for an uploaded design.
func (r *daemonRun) reference(u *upload, v core.Variant) error {
	d, err := design.Read(strings.NewReader(u.text))
	if err != nil {
		return err
	}
	opt := core.DefaultOptions(v)
	opt.ExecWorkers = r.spec.JobWorkers
	res, err := core.Route(d, opt)
	if err != nil {
		return err
	}
	gs, text, err := emitGuides(res)
	if err != nil {
		return err
	}
	if err := checkRouted(res, gs); err != nil {
		return err
	}
	u.guides, u.score = text, res.Report.Score
	return nil
}

// jobRecord is one client-side job.
type jobRecord struct {
	latency   time.Duration // submit until guides fetched and verified
	submit    time.Duration
	status    []time.Duration
	fetch     time.Duration
	queueWait time.Duration // submit acknowledged until a poll sees it leave the queue
	serviceMs float64       // from the job status JSON
	guideLen  int
	score     float64
	rejected  bool
	err       error
}

// sessionOut is what one session measured.
type sessionOut struct {
	wall    time.Duration
	alloc   uint64
	heap    uint64 // live heap after the last job
	journal int64  // bytes of the job journal at the end
	jobs    []jobRecord
	snap    obs.Snapshot
}

// session runs spec.Jobs jobs against d from spec.Clients closed-loop
// clients, then stops d. With a tracer, every HTTP call is a span under
// its job's root span, and job roots sit under one session span.
func (r *daemonRun) session(d *daemon, tr *tracer) (sessionOut, error) {
	base := "http://" + d.srv.Addr()
	transport := &http.Transport{MaxIdleConnsPerHost: r.spec.Clients}
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	defer transport.CloseIdleConnections()
	out := sessionOut{jobs: make([]jobRecord, r.spec.Jobs)}
	runtime.GC()
	a := totalAlloc()
	start := time.Now()
	root := -1
	if tr != nil {
		root = tr.begin("session", -1, 0)
	}
	var wg sync.WaitGroup
	for c := 0; c < r.spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &jobClient{http: client, base: base, tr: tr, lane: 1 + c, parent: root, poll: r.spec.Poll}
			for i := c; i < r.spec.Jobs; i += r.spec.Clients {
				out.jobs[i] = cl.job(r.uploads[i%len(r.uploads)], r.spec.JobWorkers)
			}
		}(c)
	}
	wg.Wait()
	if tr != nil {
		tr.end(root)
	}
	out.wall = time.Since(start)
	out.alloc = totalAlloc() - a
	out.heap = liveHeap()
	if st, err := os.Stat(filepath.Join(d.dir, "jobs.jsonl")); err == nil {
		out.journal = st.Size()
	}
	out.snap = d.reg.Snapshot()
	if err := d.stop(); err != nil {
		return out, fmt.Errorf("stopping the daemon: %w", err)
	}
	return out, nil
}

// nextSession runs a session on d, or on a fresh daemon when d is nil
// (only the first session gets the daemon the set-up started).
func (r *daemonRun) nextSession(d *daemon, tr *tracer) (sessionOut, error) {
	if d == nil {
		var err error
		if d, err = startDaemon(r.spec, r.stateDir()); err != nil {
			return sessionOut{}, err
		}
	}
	return r.session(d, tr)
}

// jobClient is one closed-loop client.
type jobClient struct {
	http   *http.Client
	base   string
	tr     *tracer
	lane   int
	parent int
	poll   time.Duration
}

func (c *jobClient) begin(name string, parent int) int {
	if c.tr == nil {
		return -1
	}
	return c.tr.begin(name, parent, c.lane)
}

func (c *jobClient) end(id int) {
	if c.tr != nil {
		c.tr.end(id)
	}
}

// call performs one HTTP request under a span and returns the status code
// and body.
func (c *jobClient) call(span string, parent int, method, url string, body []byte) (int, []byte, time.Duration, error) {
	s := c.begin(span, parent)
	defer c.end(s)
	start := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, time.Since(start), err
}

// job submits one upload, polls its status until it is terminal, fetches
// its guides and checks them byte for byte against the direct routing.
func (c *jobClient) job(u upload, workers int) (rec jobRecord) {
	root := c.begin("job", c.parent)
	defer c.end(root)
	start := time.Now()
	spec, err := json.Marshal(serve.JobSpec{DesignText: u.text, Router: "fastgrl", ExecWorkers: workers})
	if err != nil {
		rec.err = err
		return rec
	}
	code, body, took, err := c.call("serve.submit", root, http.MethodPost, c.base+"/v1/jobs", spec)
	rec.submit = took
	if err == nil && code != http.StatusAccepted {
		rec.rejected = code == http.StatusTooManyRequests
		err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	var ack struct{ ID string }
	if err == nil {
		err = json.Unmarshal(body, &ack)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	acked := time.Now()
	var job serve.Job
	for {
		if time.Since(acked) > jobDeadline {
			rec.err = fmt.Errorf("job %s still %s after %v", ack.ID, job.State, jobDeadline)
			return rec
		}
		code, body, took, err := c.call("serve.status", root, http.MethodGet, c.base+"/v1/jobs/"+ack.ID, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status: HTTP %d", code)
		}
		if err == nil {
			err = json.Unmarshal(body, &job)
		}
		if err != nil {
			rec.err = err
			return rec
		}
		rec.status = append(rec.status, took)
		if job.State != serve.StateQueued && rec.queueWait == 0 {
			rec.queueWait = time.Since(acked)
		}
		if job.State == serve.StateDone || job.State == serve.StateFailed || job.State == serve.StateCancelled {
			break
		}
		time.Sleep(c.poll)
	}
	if job.State != serve.StateDone || job.Result == nil {
		rec.err = fmt.Errorf("job %s ended %s: %s", ack.ID, job.State, job.Error)
		return rec
	}
	rec.serviceMs = float64(job.Result.ServiceMs)
	rec.score = job.Result.Score
	code, guides, took, err := c.call("serve.guides", root, http.MethodGet, c.base+"/v1/jobs/"+ack.ID+"/guides", nil)
	rec.fetch = took
	switch {
	case err != nil:
	case code != http.StatusOK:
		err = fmt.Errorf("guides: HTTP %d", code)
	case !bytes.Equal(guides, u.guides):
		err = fmt.Errorf("job %s: guides differ from the direct routing of its design", ack.ID)
	case job.Result.Score != u.score:
		err = fmt.Errorf("job %s: score %.1f, direct routing %.1f", ack.ID, job.Result.Score, u.score)
	}
	rec.guideLen = len(guides)
	rec.err = err
	rec.latency = time.Since(start)
	return rec
}

// tallySession counts a session's jobs and returns the latencies and
// summed score of those done.
func tallySession(s sessionOut, tl *tally) (lat []float64, score float64) {
	for _, j := range s.jobs {
		tl.op(j.err)
		if j.err == nil {
			lat = append(lat, ms(j.latency))
			score += j.score
		}
	}
	return lat, score
}

// runDaemon measures the daemon workload without tracing: sessions of
// spec.Jobs jobs, each against a fresh daemon, until the window is used.
// Each metric is taken per session; the run reports the median.
func runDaemon(w *workload, cfg config, tl *tally) (map[string]float64, error) {
	r, d, setup, err := daemonSetup(w, cfg)
	if err != nil {
		return nil, err
	}
	var sessions []map[string]float64
	start := time.Now()
	var last time.Duration
	for s := 0; keepGoing(s, minPasses, time.Since(start), last, cfg.window); s++ {
		sessStart := time.Now()
		out, err := r.nextSession(d, nil)
		d = nil
		if err != nil {
			return nil, err
		}
		lat, score := tallySession(out, tl)
		sessions = append(sessions, passMetrics(out.wall, out.alloc, out.heap, score, lat))
		last = time.Since(sessStart)
		fmt.Fprintf(os.Stderr, "session %d: %d jobs in %.3f s, p50 %.1f ms\n", s, len(lat), out.wall.Seconds(), quantile(lat, 0.5))
	}
	v := medianMaps(sessions)
	v["setup_s"] = median(setup)
	return v, nil
}

// traceDaemon alternates untraced and traced sessions until the window is
// used and reports the daemon's layer values over the traced sessions.
func traceDaemon(w *workload, cfg config, tl *tally) (map[string]float64, *tracer, error) {
	r, d, _, err := daemonSetup(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	var plain, traced []float64
	var sessions []sessionOut
	var last *tracer
	start := time.Now()
	var lastPair time.Duration
	for pair := 0; keepGoing(pair, 1, time.Since(start), lastPair, cfg.window); pair++ {
		pairStart := time.Now()
		for _, on := range []bool{false, true} {
			var tr *tracer
			if on {
				tr = newTracer()
			}
			out, err := r.nextSession(d, tr)
			d = nil
			if err != nil {
				return nil, nil, err
			}
			tallySession(out, tl)
			if !on {
				plain = append(plain, out.wall.Seconds())
				continue
			}
			traced = append(traced, out.wall.Seconds())
			sessions = append(sessions, out)
			last = tr
		}
		lastPair = time.Since(pairStart)
	}
	v := serveLayers(sessions)
	v["bench.trace_overhead"] = median(traced) / median(plain)
	return v, last, nil
}

// serveLayers turns the traced sessions into layer values: client-side
// HTTP timings and job status JSON pooled over every traced job; journal
// size, guide bytes and the routing counters of each daemon's metrics
// registry as the median over sessions.
func serveLayers(sessions []sessionOut) map[string]float64 {
	var submit, status, fetch, service, wait []float64
	per := make([]map[string]float64, len(sessions))
	for i, s := range sessions {
		v := map[string]float64{}
		for _, j := range s.jobs {
			if j.rejected {
				v["serve.rejected"]++
			}
			submit = append(submit, ms(j.submit))
			for _, t := range j.status {
				status = append(status, ms(t))
			}
			if j.err == nil {
				fetch = append(fetch, ms(j.fetch))
				service = append(service, j.serviceMs)
				wait = append(wait, ms(j.queueWait))
				v["guide.bytes"] += float64(j.guideLen)
			}
		}
		v["serve.journal_bytes"] = float64(s.journal)
		c, h := s.snap.Counters, s.snap.Histograms
		v["maze.searches"] = float64(c[obs.MMazeSearches])
		v["maze.expansions"] = float64(h[obs.MMazeExpansions].Sum)
		v["sched.batches"] = float64(c[obs.MSchedBatches])
		v["patterngpu.calls"] = float64(c[obs.MSchedBatches])
		v["patterngpu.edges"] = float64(c[obs.MPatternLShape] + c[obs.MPatternHybrid])
		v["patterngpu.hybrid_edges"] = float64(c[obs.MPatternHybrid])
		v["core.rrr_nets"] = float64(c[obs.MRRRNets])
		per[i] = v
	}
	v := medianMaps(per)
	v["serve.submit_ms_p50"] = quantile(submit, 0.5)
	v["serve.submit_ms_p90"] = quantile(submit, 0.9)
	v["serve.status_ms"] = median(status)
	v["serve.guide_fetch_ms"] = median(fetch)
	v["serve.service_ms"] = median(service)
	v["serve.queue_wait_ms"] = median(wait)
	return v
}
