package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ttmcas/internal/server"
)

// lateBound is how late, at p99, the open loop's generator may be: a
// worker already waiting for an arrival claimed it this long after its
// due time. Beyond it the generator, not the system, would set the
// latency, and the run is invalid. Lateness is charged to the requests
// either way (each is timed from its due time); waits for a free worker
// are not lateness. The spinning workers keep schedule to tens of µs.
const lateBound = time.Millisecond

// maxForwardChecks bounds how many forwarded bodies are recomputed.
const maxForwardChecks = 400

// setupReps is how many times an untraced run sets up; setup_s is the
// median, and the last set-up serves the timed phases.
const setupReps = 9

type runConfig struct {
	w       workload
	seed    uint64
	seconds time.Duration
	traced  bool
}

func (c runConfig) share(f float64) time.Duration {
	return time.Duration(f * float64(c.seconds))
}

// rounds is how many times a run cycles through its phases. The rates
// are medians over rounds, so a host that slows for a few seconds moves
// a few rounds of every phase, not one phase's figure; the open-loop
// percentiles are taken over every arrival of every round.
const rounds = 10

// phases is everything the timed phases recorded, over all rounds.
type phases struct {
	closed, closedTraced *clientLog
	closedDur, tracedDur time.Duration
	closedRates          []float64 // req/s per untraced round
	open                 *clientLog
	jobs                 *jobLog
	jobsDur              time.Duration
	jobRates             []float64 // jobs/s per round
	// primary is the runtime cost of the workload's primary phase:
	// the untraced closed loop, or the job loop.
	primary opWindow
	// inter and batch sum the counter deltas across the interactive
	// and the job phases.
	inter, batch counters
}

func run(cfg runConfig) (result, map[string]any, error) {
	nproc := runtime.GOMAXPROCS(0)
	m, err := newMix(cfg.seed)
	if err != nil {
		return result{}, nil, err
	}
	meta := metadata(cfg, nproc)

	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var setups []float64
	var f *fleet
	for i := 0; i < reps; i++ {
		// Each set-up starts from a collected heap, so the garbage of
		// the one before is not collected on its time.
		runtime.GC()
		t0 := time.Now()
		fl, err := startFleet(cfg.w.nodes)
		if err == nil {
			err = warm(fl, m)
		}
		if err != nil {
			if fl != nil {
				fl.close()
			}
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			fl.close()
		} else {
			f = fl
		}
	}
	defer f.close()
	if cfg.traced {
		for _, nd := range f.nodes {
			nd.owner = &ownerSpans{}
		}
	}
	t0 := time.Now()
	if err := fill(f, m, cfg.seed, nproc, 60*time.Second); err != nil {
		return result{}, nil, err
	}
	meta["fill_s"] = time.Since(t0).Seconds()
	runtime.GC()
	clk := clock{t0: time.Now()}
	before := f.counters()
	ph := runRounds(cfg, f, m, nproc, clk)
	after := f.counters()

	attempted := ph.closed.ok + ph.closed.failed + ph.closedTraced.ok + ph.closedTraced.failed +
		ph.open.ok + ph.open.failed + len(ph.jobs.done) + ph.jobs.failed
	failed := ph.closed.failed + ph.closedTraced.failed + ph.open.failed + ph.jobs.failed
	for _, e := range append(append(append(ph.closed.errs, ph.closedTraced.errs...), ph.open.errs...), ph.jobs.errs...) {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}

	// Correctness, on the retained samples.
	retained := append(append(append([]sample(nil), ph.closed.retained...), ph.closedTraced.retained...), ph.open.retained...)
	checks := map[string]any{}
	correct := true
	nEval, err := checkEvals(retained)
	checks["eval_responses"] = nEval
	if err != nil {
		correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check:", err)
	}
	nFwd, err := checkForwards(retained, maxForwardChecks)
	checks["forwarded_bodies"] = nFwd
	if err != nil {
		correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check:", err)
	}
	nJobs, err := checkJobs(ph.jobs.done)
	checks["job_kinds"] = nJobs
	if err != nil {
		correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check:", err)
	}
	if nEval == 0 || nJobs < len(jobKinds) || (cfg.w.nodes > 1 && nFwd == 0) {
		correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check: too few samples (eval %d, forwarded %d, job kinds %d)\n", nEval, nFwd, nJobs)
	}

	// Validity: a run that failed, shed, served stale, lost forwards or
	// tripped a breaker, or whose generator ran late, is not a
	// measurement.
	late99 := quantile(ph.open.late, 0.99)
	invalid := validity(before, after, failed, late99, us(lateBound))
	for _, why := range invalid {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", why)
	}

	meta["checks"] = checks
	meta["invalid"] = invalid
	var turn []float64
	for _, j := range ph.jobs.done {
		turn = append(turn, j.turnaroundMS())
	}
	meta["samples"] = map[string]any{
		"rounds":                rounds,
		"closed_loop_requests":  ph.closed.ok,
		"open_loop_requests":    len(ph.open.lat),
		"jobs":                  len(ph.jobs.done),
		"setups":                len(setups),
		"x_cache_closed":        ph.closed.cache,
		"closed_rps_by_round":   slices.Clone(ph.closedRates),
		"open_wait_us_p50_p99":  []float64{quantile(ph.open.wait, 0.5), quantile(ph.open.wait, 0.99)},
		"open_serve_us_p50_p99": []float64{quantile(ph.open.serve, 0.5), quantile(ph.open.serve, 0.99)},
		"jobs_per_s_by_round":   slices.Clone(ph.jobRates),
		"open_late_us_p50_p99":  []float64{quantile(ph.open.late, 0.5), late99},
		"turnaround_ms_p50_p95": []float64{quantile(turn, 0.5), quantile(turn, 0.95)},
	}

	res := result{Correct: correct && len(invalid) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if len(invalid) > 0 {
		return res, meta, nil
	}
	if cfg.traced {
		res.Metrics, err = layerMetrics(cfg, f, ph, before, after, clk)
		return res, meta, err
	}
	res.Metrics = map[string]metric{
		"setup_s":               {median(setups), "s"},
		"throughput_rps":        {median(ph.closedRates), "req/s"},
		"latency_p50_us":        {quantile(ph.open.lat, 0.50), "us"},
		"latency_p99_us":        {quantile(ph.open.lat, 0.99), "us"},
		"jobs_per_s":            {median(ph.jobRates), "jobs/s"},
		"job_turnaround_p50_ms": {quantile(turn, 0.50), "ms"},
		"job_turnaround_p95_ms": {quantile(turn, 0.95), "ms"},
		"mem_peak_mb":           {peakRSSMiB(), "MiB"},
	}
	return res, meta, nil
}

// runRounds cycles through the closed loop, the open loop and the job
// loop `rounds` times. In a traced run every other closed-loop round is
// traced; the rest give the untraced throughput trace.overhead_share is
// taken against.
func runRounds(cfg runConfig, f *fleet, m *mix, nproc int, clk clock) *phases {
	ph := &phases{
		closed: &clientLog{}, closedTraced: &clientLog{}, open: &clientLog{}, jobs: &jobLog{},
		inter: make(counters, len(f.nodes)), batch: make(counters, len(f.nodes)),
	}
	primaryBatch := cfg.w.batch > cfg.w.closed
	for r := 0; r < rounds; r++ {
		// Each phase starts from a collected heap, so the garbage of one
		// phase is not collected on the time of the next.
		runtime.GC()
		c0 := f.counters()
		traced := cfg.traced && r%2 == 1
		win := startWindow()
		cl, dur := closedLoop(f, m, cfg.seed, 100*r, nproc, cfg.share(cfg.w.closed/rounds), clk, traced)
		if traced {
			ph.closedTraced.merge(cl)
			ph.tracedDur += dur
		} else {
			if !primaryBatch {
				ph.primary.add(win.stop(cl.ok))
			}
			ph.closed.merge(cl)
			ph.closedDur += dur
			ph.closedRates = append(ph.closedRates, float64(cl.ok)/dur.Seconds())
		}

		runtime.GC()
		ol := openLoop(f, m, cfg.seed, 10000+r, openWorkers(len(f.nodes), nproc), cfg.w.rate, cfg.share(cfg.w.open/rounds), clk, cfg.traced)
		ph.open.merge(ol)
		c1 := f.counters()
		ph.inter.add(c0, c1)

		runtime.GC()
		win = startWindow()
		jl, jd := jobLoop(f, m.dom, cfg.seed, 100*r, nproc, cfg.share(cfg.w.batch/rounds))
		if primaryBatch {
			ph.primary.add(win.stop(len(jl.done)))
		}
		ph.jobs.merge(jl)
		ph.jobsDur += jd
		ph.jobRates = append(ph.jobRates, float64(len(jl.done))/jd.Seconds())
		ph.batch.add(c1, f.counters())
	}
	return ph
}

// warm sends every popular key once to the node that owns it, so the
// timed phases start with the popular set cached and its evaluators
// compiled.
func warm(f *fleet, m *mix) error {
	rec := newRecorder()
	for _, er := range m.allPopular() {
		key, err := server.CacheKey("POST "+er.Path(), er.Req)
		if err != nil {
			return err
		}
		if code := rec.do(f.nodes[f.owner(key)].srv.Handler(), http.MethodPost, er.Path(), er.Body); code != http.StatusOK {
			return fmt.Errorf("warming %s %s: %d %s", er.Path(), er.Body, code, rec.body.String())
		}
	}
	return nil
}

// fill sends fresh keys, untimed, each straight to its owner, until
// every node's response cache has evicted: the timed phases then run
// with the caches at their byte budget, writes and evictions beside
// reads, instead of on heaps that grow with however many requests the
// host had time to serve. Sending each key to its owner fills a ring
// without the forwarding hop.
func fill(f *fleet, m *mix, seed uint64, clients int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	var wg sync.WaitGroup
	var full atomic.Bool
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := m.stream(seed, 2000+c)
			rec := newRecorder()
			evicted := make([]bool, len(f.nodes))
			for n := 1; !full.Load(); n++ {
				er := st.next()
				if er.Class == classPopular {
					continue
				}
				key, err := server.CacheKey("POST "+er.Path(), er.Req)
				if err != nil {
					errs[c] = err
					return
				}
				h := f.nodes[f.owner(key)].srv.Handler()
				if code := rec.do(h, http.MethodPost, er.Path(), er.Body); code != http.StatusOK {
					errs[c] = fmt.Errorf("fill %s %s: %d", er.Path(), er.Body, code)
					return
				}
				if c == 0 && n%2000 == 0 && allEvicted(f, evicted) {
					full.Store(true)
				}
				if time.Now().After(deadline) {
					errs[c] = fmt.Errorf("fill: not every cache evicted after %s", limit)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// allEvicted reports whether every node's response cache has evicted,
// remembering in seen the nodes found so already.
func allEvicted(f *fleet, seen []bool) bool {
	all := true
	for i, nd := range f.nodes {
		if !seen[i] {
			seen[i] = sum(scrape(nd.srv.Handler()), "ttmcas_response_cache_evictions_total") > 0
			all = all && seen[i]
		}
	}
	return all
}

// validity lists why a run is not a valid measurement; empty if it is.
func validity(before, after counters, failed int, late99, lateBound float64) []string {
	var why []string
	if failed > 0 {
		why = append(why, fmt.Sprintf("%d failed operations", failed))
	}
	for _, c := range []struct{ metric, what string }{
		{"ttmcas_admission_shed_total", "admission sheds"},
		{"ttmcas_stale_served_total", "stale serves"},
		{"ttmcas_cluster_forward_errors_total", "forward errors"},
		{"ttmcas_cluster_breaker_short_circuits_total", "breaker short-circuits"},
	} {
		if d := after.get(-1, c.metric) - before.get(-1, c.metric); d > 0 {
			why = append(why, fmt.Sprintf("%g %s", d, c.what))
		}
	}
	if late99 > lateBound {
		why = append(why, fmt.Sprintf("open-loop generator ran %.0f µs late at p99 (bound %.0f µs)", late99, lateBound))
	}
	return why
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return -1
			}
			return kb / 1024
		}
	}
	return -1
}
