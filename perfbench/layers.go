package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"ttmcas"
	"ttmcas/internal/core"
	"ttmcas/internal/jobs"
	"ttmcas/internal/server"
	"ttmcas/internal/units"
)

// The traced run's per-layer breakdown. Spans come from the benchmark's
// own calls: ServeHTTP per request (named by its X-Cache outcome), the
// owner side of each forward (the listener wrapper), and a replay of a
// sample of the run's own requests through each layer's public
// functions in pipeline order.

// replaySample bounds how many traced requests are replayed.
const replaySample = 2000

// replayJobs is how many jobs per kind are replayed through the engines.
const replayJobs = 5

// replay runs one request's layers in pipeline order; the spans share
// the request's ID.
func replay(clk clock, s served) ([]span, error) {
	id := s.sp.ID
	var spans []span
	step := func(name string, fn func() error) error {
		t0 := clk.now()
		err := fn()
		spans = append(spans, span{ID: id, Name: name, Start: t0, End: clk.now()})
		return err
	}
	var req server.EvalRequest
	if err := step("decode", func() error { return json.Unmarshal(s.req.Body, &req) }); err != nil {
		return nil, err
	}
	if err := step("key", func() error {
		_, err := server.CacheKey("POST "+s.req.Path(), req)
		return err
	}); err != nil {
		return nil, err
	}
	d, c, err := resolve(req)
	if err != nil {
		return nil, err
	}
	var resp any
	if s.req.Route == routeCost {
		if err := step("eval", func() error {
			b, err := ttmcas.Cost(d, req.N)
			resp = costResponse(d, req.N, b)
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		var ev *ttmcas.Evaluator
		if err := step("compile", func() error {
			ev, err = ttmcas.Compile(d, 1, c)
			return err
		}); err != nil {
			return nil, err
		}
		if err := step("eval", func() error {
			if s.req.Route == routeTTM {
				res, err := ev.EvalResultChips(ttmcas.Perturbation{}, req.N)
				resp = ttmResponse(d, req.N, c, res)
				return err
			}
			res, err := ev.CASResultChips(ttmcas.Perturbation{}, req.N)
			resp = casResponse(d, req.N, c, res)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := step("encode", func() error {
		_, err := json.Marshal(resp)
		return err
	}); err != nil {
		return nil, err
	}
	return spans, nil
}

// spanStats groups span durations (µs) by name.
type spanStats map[string][]float64

func (s spanStats) add(sp span) { s[sp.Name] = append(s[sp.Name], float64(sp.dur())/1e3) }

func (s spanStats) p50(name string) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	return median(s[name])
}

func layerMetrics(cfg runConfig, f *fleet, ph *phases, before, after counters, clk clock) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// ---- server: serve spans by X-Cache outcome, then the replay.
	traced := append(append([]served(nil), ph.closedTraced.spans...), ph.open.spans...)
	st := spanStats{}
	cache := map[string]int{}
	for _, s := range traced {
		st.add(s.sp)
		cache[s.sp.Name]++
	}
	put("server.hit_us", st.p50("serve.HIT"), "us")
	put("server.miss_us", st.p50("serve.MISS"), "us")
	put("server.fwd_us", st.p50("serve.FWD"), "us")
	put("server.cache_hit_ratio", float64(cache["serve.HIT"])/float64(max(1, len(traced))), "ratio")

	var residual []float64
	every := max(1, len(traced)/replaySample)
	for i := 0; i < len(traced); i += every {
		s := traced[i]
		if s.req.Route == routeSens {
			continue
		}
		spans, err := replay(clk, s)
		if err != nil {
			return nil, fmt.Errorf("replay %s %s: %w", s.req.Path(), s.req.Body, err)
		}
		// The serve span's self time, with the layers the server ran for
		// this request laid end to end inside it, is the residual: cache
		// put, admission, singleflight and metrics.
		var laid []span
		at := s.sp.Start
		for _, c := range spans {
			st.add(c)
			// The server compiles only on an evaluator-cache miss.
			if c.Name != "compile" || s.req.Class == classFreshCompile {
				laid = append(laid, span{ID: c.ID, Name: c.Name, Start: at, End: at + c.dur()})
				at += c.dur()
			}
		}
		if s.sp.Name == "serve.MISS" {
			residual = append(residual, float64(selfTime(s.sp, laid))/1e3)
		}
	}
	put("server.decode_us", st.p50("decode"), "us")
	put("server.key_us", st.p50("key"), "us")
	put("server.encode_us", st.p50("encode"), "us")
	put("server.residual_us", medianOr0(residual), "us")
	put("core.compile_us", st.p50("compile"), "us")
	put("core.eval_ns", st.p50("eval")*1e3, "ns")

	// ---- server and cluster counters: deltas across the interactive
	// phases (d) and across the job phase (dj).
	d := func(name string) float64 { return ph.inter.get(-1, name) }
	dj := func(name string) float64 { return ph.batch.get(-1, name) }
	dall := func(name string) float64 { return after.get(-1, name) - before.get(-1, name) }
	put("server.cache_evictions", d("ttmcas_response_cache_evictions_total"), "count")
	put("server.evalcache_hit_ratio", ratio(d("ttmcas_evalcache_hits_total"), d("ttmcas_evalcache_misses_total")), "ratio")
	for i := 0; i < 3; i++ {
		var ch, eh float64
		if i < len(f.nodes) {
			ch = ratio(ph.inter.get(i, "ttmcas_cache_hits_total"), ph.inter.get(i, "ttmcas_cache_misses_total"))
			eh = ratio(ph.inter.get(i, "ttmcas_evalcache_hits_total"), ph.inter.get(i, "ttmcas_evalcache_misses_total"))
		}
		put(fmt.Sprintf("server.cache_hit_ratio.node%d", i), ch, "ratio")
		put(fmt.Sprintf("server.evalcache_hit_ratio.node%d", i), eh, "ratio")
	}
	put("server.flight_shared", d("ttmcas_singleflight_shared_total"), "count")
	put("server.shed", dall("ttmcas_admission_shed_total"), "count")
	put("server.stale", dall("ttmcas_stale_served_total"), "count")
	requests := ph.closed.ok + ph.closedTraced.ok + ph.open.ok
	put("core.model_evals", d("ttmcas_model_evaluations_total")/float64(max(1, requests)), "evals/req")
	put("core.batch_evals_per_s", batchProbe(cfg.seed, 300*time.Millisecond), "evals/s")

	put("cluster.forwarded_share", float64(cache["serve.FWD"])/float64(max(1, len(traced))), "ratio")
	forwardUS := 1e6 * d("ttmcas_cluster_forward_seconds_sum") / max(1, d("ttmcas_cluster_forward_seconds_count"))
	var owner []float64
	for _, nd := range f.nodes {
		if nd.owner != nil {
			owner = append(owner, nd.owner.durations()...)
		}
	}
	ownerUS := 0.0
	if len(owner) > 0 {
		ownerUS = mean(owner)
	}
	hopUS := 0.0
	if forwardUS > 0 {
		hopUS = forwardUS - ownerUS
	}
	put("cluster.forward_us", forwardUS, "us")
	put("cluster.owner_us", ownerUS, "us")
	put("cluster.hop_us", hopUS, "us")
	put("cluster.forward_errors", dall("ttmcas_cluster_forward_errors_total"), "count")
	put("cluster.retries", dall("ttmcas_cluster_retries_total"), "count")
	put("cluster.breaker_short_circuits", dall("ttmcas_cluster_breaker_short_circuits_total"), "count")

	// ---- jobs: HTTP spans, the jobs' own timestamps, engine replays.
	var submit, fetch, wait []float64
	runs := map[string][]float64{}
	for _, j := range ph.jobs.done {
		submit = append(submit, j.submitUS)
		fetch = append(fetch, j.fetchUS)
		wait = append(wait, float64(j.started.Sub(j.created))/1e6)
		runs[j.kind] = append(runs[j.kind], float64(j.finished.Sub(j.started))/1e6)
	}
	put("jobs.submit_us", medianOr0(submit), "us")
	put("jobs.fetch_us", medianOr0(fetch), "us")
	put("jobs.queue_wait_ms", medianOr0(wait), "ms")
	for _, k := range jobKinds {
		put("jobs.run_ms."+k, medianOr0(runs[k]), "ms")
	}
	engineMS := map[string][]float64{}
	var overhead []float64
	for _, j := range ph.jobs.done {
		if j.kind == jobs.KindSweep || len(engineMS[j.kind]) >= replayJobs {
			continue
		}
		t0 := time.Now()
		if _, err := engine(j.spec); err != nil {
			return nil, fmt.Errorf("engine replay %s: %w", j.kind, err)
		}
		ms := float64(time.Since(t0)) / 1e6
		engineMS[j.kind] = append(engineMS[j.kind], ms)
		overhead = append(overhead, float64(j.finished.Sub(j.started))/1e6-ms)
	}
	put("mc.band_ms", medianOr0(engineMS[jobs.KindMCBand]), "ms")
	put("sens.sobol_ms", medianOr0(engineMS[jobs.KindSensitivity]), "ms")
	put("timeline.eval_ms", medianOr0(engineMS[jobs.KindTimeline]), "ms")
	put("jobs.overhead_ms", medianOr0(overhead), "ms")
	put("jobs.shards_dispatched", dj("ttmcas_jobs_shards_dispatched_total"), "count")
	put("jobs.shards_hedged", dj("ttmcas_jobs_shards_hedged_total"), "count")
	put("jobs.shards_fallback", dj("ttmcas_jobs_shards_fallback_total"), "count")
	put("jobs.shard_ms", 1e3*dj("ttmcas_jobs_shard_seconds_sum")/max(1, dj("ttmcas_jobs_shard_seconds_count")), "ms")

	// ---- runtime cost of the workload's primary operation.
	put("go.allocs_per_op", ph.primary.perOp(ph.primary.mallocs), "allocs/op")
	put("go.bytes_per_op", ph.primary.perOp(ph.primary.byts), "B/op")
	put("go.gc_cpu_share", ph.primary.gcShare(), "ratio")

	// ---- the open-loop generator and the tracing overhead.
	put("gen.offered_rps", float64(len(ph.open.lat))/cfg.share(cfg.w.open).Seconds(), "req/s")
	put("gen.late_p99_us", quantile(ph.open.late, 0.99), "us")
	put("gen.wait_p50_us", quantile(ph.open.wait, 0.5), "us")
	put("gen.serve_p50_us", quantile(ph.open.serve, 0.5), "us")
	untraced := float64(ph.closed.ok) / ph.closedDur.Seconds()
	tracedRPS := float64(ph.closedTraced.ok) / ph.tracedDur.Seconds()
	put("trace.overhead_share", tracedRPS/untraced, "ratio")
	return out, nil
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// batchProbe measures Evaluator.EvalBatch on an mc-band-shaped batch:
// 1024 samples of the six perturbation columns, uniform in ±10%.
func batchProbe(seed uint64, d time.Duration) float64 {
	ev, err := ttmcas.Compile(ttmcas.A11At(28), 1e7, ttmcas.FullCapacity())
	if err != nil {
		return 0
	}
	const n = 1024
	r := rand.New(rand.NewPCG(seed, 0x626174))
	col := func() []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = 0.9 + 0.2*r.Float64()
		}
		return c
	}
	b := core.Batch{NTT: col(), NUT: col(), D0: col(), Rate: col(), FabLatency: col(), TAPLatency: col()}
	out := make([]units.Weeks, n)
	var errs core.BatchErrors
	evals := 0
	start := time.Now()
	for time.Since(start) < d {
		if err := ev.EvalBatch(&b, out, &errs); err != nil {
			return 0
		}
		evals += n
	}
	return float64(evals) / time.Since(start).Seconds()
}
