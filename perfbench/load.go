package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ttmcas/internal/jobs"
	"ttmcas/internal/server"
)

// The load phases: a closed loop and an open (Poisson) loop over the
// interactive mix, and a closed loop of batch-job submitters.

// retainEvery keeps one response in this many for the correctness check.
const retainEvery = 101

// sample is a retained response, checked after timing.
type sample struct {
	req   evalReq
	cache string
	body  []byte
}

// served is one traced request: its serve span and the request.
type served struct {
	sp  span
	req evalReq
}

// clientLog is one client's record of a phase; merged after it ends.
type clientLog struct {
	ok, failed int
	// Open loop, successful arrivals only: µs from the due time to the
	// response; from the due time until a worker claimed it (wait) and
	// the part of that a waiting worker was late (late); inside
	// ServeHTTP (serve).
	lat, wait, serve, late []float64
	cache                  map[string]int
	retained               []sample
	spans                  []served
	errs                   []string
}

func (c *clientLog) merge(o *clientLog) {
	c.ok += o.ok
	c.failed += o.failed
	c.lat = append(c.lat, o.lat...)
	c.wait = append(c.wait, o.wait...)
	c.serve = append(c.serve, o.serve...)
	c.late = append(c.late, o.late...)
	if c.cache == nil {
		c.cache = make(map[string]int)
	}
	for k, v := range o.cache {
		c.cache[k] += v
	}
	c.retained = append(c.retained, o.retained...)
	c.spans = append(c.spans, o.spans...)
	if len(c.errs) < 5 {
		c.errs = append(c.errs, o.errs...)
	}
}

// record books one response; t0 and t1 bound it on the trace clock. It
// reports whether the response succeeded.
func (c *clientLog) record(rec *recorder, er evalReq, n int, t0, t1 int64, traced bool, id uint64) bool {
	if c.cache == nil {
		c.cache = make(map[string]int)
	}
	xc := ""
	if v := rec.h["X-Cache"]; len(v) > 0 {
		xc = v[0]
	}
	if rec.code != http.StatusOK {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf("%s %d: %.200s", er.Path(), rec.code, rec.body.String()))
		}
		return false
	}
	c.ok++
	c.cache[xc]++
	if n%retainEvery == 0 {
		c.retained = append(c.retained, sample{req: er, cache: xc, body: append([]byte(nil), rec.body.Bytes()...)})
	}
	if traced {
		c.spans = append(c.spans, served{sp: span{ID: id, Name: "serve." + xc, Start: t0, End: t1}, req: er})
	}
	return true
}

// clock is the shared trace clock.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// picker chooses the entry node of a request: node 0 alone, or a
// placement-blind uniform choice on a ring.
func picker(f *fleet, r *rand.Rand) func() int {
	if len(f.nodes) == 1 {
		return func() int { return 0 }
	}
	return func() int { return r.IntN(len(f.nodes)) }
}

// closedLoop runs `clients` closed-loop clients over the mix for d.
func closedLoop(f *fleet, m *mix, seed uint64, streamBase, clients int, d time.Duration, clk clock, traced bool) (*clientLog, time.Duration) {
	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := m.stream(seed, streamBase+c)
			pick := picker(f, rand.New(rand.NewPCG(seed, 0x7069636b+uint64(streamBase+c))))
			rec := newRecorder()
			lg := logs[c]
			for n := 1; ; n++ {
				er := st.next()
				i := pick()
				t0 := clk.now()
				rec.do(f.nodes[i].srv.Handler(), http.MethodPost, er.Path(), er.Body)
				t1 := clk.now()
				lg.record(rec, er, n, t0, t1, traced, uint64(streamBase+c)<<40|uint64(n))
				if time.Now().After(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	out := &clientLog{}
	for _, lg := range logs {
		out.merge(lg)
	}
	return out, elapsed
}

// openWorkers is how many workers serve the open loop's arrivals. Every
// idle worker waits for the next arrival itself, so a host stall of one
// CPU holds up only the worker it caught. On a ring there are only as
// many workers as processors, because a waiting ring worker naps with
// its processor held (see openLoop): with more of them than processors,
// the owner side of a forward would wait for the runtime to take a
// processor back from a napping worker.
func openWorkers(nodes, nproc int) int {
	if nodes > 1 {
		return nproc
	}
	return 8
}

// A ring worker whose next arrival is more than napAhead away naps for
// napFor (about 70 µs with the kernel's timer slack) before it looks at
// the clock again; closer to the due time it only yields.
const (
	napAhead = 60 * time.Microsecond
	napFor   = 20 * time.Microsecond
)

type arrival struct {
	due  time.Duration
	req  evalReq
	node int
}

// schedule draws the open loop's Poisson arrivals for d at rate.
func schedule(f *fleet, m *mix, seed uint64, streamID int, rate float64, d time.Duration) []arrival {
	st := m.stream(seed, streamID)
	r := rand.New(rand.NewPCG(seed, 0x6f70656e))
	pick := picker(f, r)
	var out []arrival
	var due time.Duration
	for {
		due += time.Duration(r.ExpFloat64() / rate * 1e9)
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, req: st.next(), node: pick()})
	}
}

// openLoop offers Poisson arrivals at `rate` per second for d to
// `workers` workers. Each request is timed from its due time, so a
// stall, or a wait for a free worker, shows in the latency of
// everything scheduled behind it. The schedule is drawn up front.
//
// There is no dispatcher: a free worker waits on the clock until the
// next arrival is due and claims it, so a request starts without a
// goroutine hand-off (time.Sleep on an idle runtime wakes with
// millisecond resolution). The wait yields the processor on every
// check, so other work runs first. A goroutine that yields goes to the
// scheduler's global run queue, which a processor looks at before it
// polls the network; so on a ring, where forwards wait on loopback
// sockets, a waiting worker also naps in a system call while its arrival
// is far off, and the loopback replies are picked up as soon as a
// processor runs out of work rather than by the runtime's 10 ms
// background poll. It yields after every nap too: a goroutine that never
// passes through the scheduler has its processor taken back after 10 ms.
// Lateness counts only the time an arrival was due while a worker
// already waited for it: the generator being late, not the workers
// being busy.
func openLoop(f *fleet, m *mix, seed uint64, streamID, workers int, rate float64, d time.Duration, clk clock, traced bool) *clientLog {
	arrivals := schedule(f, m, seed, streamID, rate, d)
	logs := make([]*clientLog, workers)
	ring := len(f.nodes) > 1
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range logs {
		logs[w] = &clientLog{}
		wg.Add(1)
		go func(lg *clientLog) {
			defer wg.Done()
			rec := newRecorder()
			for {
				free := time.Since(start)
				i, claimed := 0, time.Duration(0)
				for {
					i = int(next.Load())
					if i >= len(arrivals) {
						return
					}
					claimed = time.Since(start)
					if claimed < arrivals[i].due {
						if ring && arrivals[i].due-claimed > napAhead {
							nap(napFor)
						}
						runtime.Gosched()
						continue
					}
					if next.CompareAndSwap(int64(i), int64(i+1)) {
						break
					}
				}
				a := &arrivals[i]
				t0 := clk.now()
				rec.do(f.nodes[a.node].srv.Handler(), http.MethodPost, a.req.Path(), a.req.Body)
				t1 := clk.now()
				if lg.record(rec, a.req, i+1, t0, t1, traced, uint64(streamID)<<40|uint64(i+1)) {
					lg.lat = append(lg.lat, us(time.Since(start)-a.due))
					lg.wait = append(lg.wait, us(claimed-a.due))
					lg.serve = append(lg.serve, float64(t1-t0)/1e3)
					lg.late = append(lg.late, us(claimed-max(a.due, free)))
				}
			}
		}(logs[w])
	}
	wg.Wait()
	out := &clientLog{}
	for _, lg := range logs {
		out.merge(lg)
	}
	return out
}

// ---- batch jobs ------------------------------------------------------

// pollInterval is the status-poll period of a submitter. Turnaround is
// taken from the job's own timestamps, so it does not quantise it.
const pollInterval = 200 * time.Microsecond

// jobRecord is one completed job.
type jobRecord struct {
	kind                       string
	spec                       jobs.Spec
	created, started, finished time.Time
	submitUS, fetchUS          float64
	result                     json.RawMessage
}

func (j jobRecord) turnaroundMS() float64 {
	return float64(j.finished.Sub(j.created))/1e6 + j.fetchUS/1e3
}

type jobLog struct {
	done   []jobRecord
	failed int
	errs   []string
}

func (l *jobLog) merge(o *jobLog) {
	l.done = append(l.done, o.done...)
	l.failed += o.failed
	if len(l.errs) < 5 {
		l.errs = append(l.errs, o.errs...)
	}
}

// jobLoop runs `submitters` closed-loop job clients for d: submit, poll
// until finished, fetch the result, delete the job. A job is submitted
// to the node owning its spec key (job IDs are per-node sequences, so a
// poll must reach the node that minted the ID).
func jobLoop(f *fleet, dom *domain, seed uint64, streamBase, submitters int, d time.Duration) (*jobLog, time.Duration) {
	logs := make([]*jobLog, submitters)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for s := range logs {
		logs[s] = &jobLog{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			g := newJobStream(dom, seed, streamBase+s)
			rec := newRecorder()
			kept := make(map[string]bool)
			for time.Now().Before(deadline) {
				jr, err := runJob(f, rec, g.next())
				if err != nil {
					logs[s].failed++
					if len(logs[s].errs) < 5 {
						logs[s].errs = append(logs[s].errs, err.Error())
					}
					continue
				}
				// One result per kind is enough for the check.
				if kept[jr.kind] {
					jr.result = nil
				}
				kept[jr.kind] = true
				logs[s].done = append(logs[s].done, jr)
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	out := &jobLog{}
	for _, lg := range logs {
		out.merge(lg)
	}
	return out, elapsed
}

func runJob(f *fleet, rec *recorder, spec jobs.Spec) (jobRecord, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobRecord{}, err
	}
	key, err := server.CacheKey("POST /v1/jobs", spec)
	if err != nil {
		return jobRecord{}, err
	}
	h := f.nodes[f.owner(key)].srv.Handler()
	out := jobRecord{kind: spec.Kind, spec: spec}

	t0 := time.Now()
	code := rec.do(h, http.MethodPost, "/v1/jobs", body)
	out.submitUS = us(time.Since(t0))
	if code != http.StatusAccepted {
		return out, fmt.Errorf("submit %s: %d %.200s", spec.Kind, code, rec.body.String())
	}
	var v jobs.View
	if err := json.Unmarshal(rec.body.Bytes(), &v); err != nil {
		return out, fmt.Errorf("submit %s: %w", spec.Kind, err)
	}
	id := v.ID
	for !v.Status.Finished() {
		time.Sleep(pollInterval)
		if code := rec.do(h, http.MethodGet, "/v1/jobs/"+id, nil); code != http.StatusOK {
			return out, fmt.Errorf("poll %s: %d %.200s", id, code, rec.body.String())
		}
		v = jobs.View{}
		if err := json.Unmarshal(rec.body.Bytes(), &v); err != nil {
			return out, fmt.Errorf("poll %s: %w", id, err)
		}
	}
	t1 := time.Now()
	code = rec.do(h, http.MethodGet, "/v1/jobs/"+v.ID+"/result", nil)
	out.fetchUS = us(time.Since(t1))
	if code != http.StatusOK {
		return out, fmt.Errorf("result %s: %d %.200s", v.ID, code, rec.body.String())
	}
	var res server.JobResultResponse
	if err := json.Unmarshal(rec.body.Bytes(), &res); err != nil {
		return out, fmt.Errorf("result %s: %w", v.ID, err)
	}
	if res.Status != jobs.StatusSucceeded || v.Started == nil || v.Finished == nil {
		return out, fmt.Errorf("job %s (%s) %s: %s", v.ID, spec.Kind, res.Status, res.Error)
	}
	out.created, out.started, out.finished = v.Created, *v.Started, *v.Finished
	out.result = res.Result
	// Finished jobs are retained for an hour; drop it so results do not
	// pile up over the run.
	if code := rec.do(h, http.MethodDelete, "/v1/jobs/"+v.ID, nil); code != http.StatusOK {
		return out, fmt.Errorf("delete %s: %d", v.ID, code)
	}
	return out, nil
}
