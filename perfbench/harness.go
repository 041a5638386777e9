package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ttmcas/internal/cluster"
	"ttmcas/internal/server"
)

// The system under test: one or more servers built with server.New.
// Clients dispatch in-process to each node's Handler(); in a ring, peers
// reach each other over real loopback HTTP through listeners the
// benchmark owns, so it can time the owner side of every forward.

type node struct {
	srv   *server.Server
	url   string
	hs    *http.Server
	done  chan struct{}
	owner *ownerSpans // nil unless traced
}

type fleet struct {
	nodes []*node
	ring  *cluster.Ring // the client-side view: every member, by URL
	idx   map[string]int
}

// quietLog discards the servers' log lines.
var quietLog = log.New(io.Discard, "", 0)

// fleetCacheBytes is the response-cache budget of a whole fleet: the
// server's default on one node, split evenly across a ring's nodes. The
// ring's caches are filled before timing like the single node's (see
// fill), so with the default budget on every node three full caches
// would triple the heap, and with it every collection's cost.
const fleetCacheBytes = 64 << 20

// startFleet builds n servers; with n > 1 they form a forwarding ring
// over loopback listeners.
func startFleet(n int) (*fleet, error) {
	f := &fleet{idx: make(map[string]int, n)}
	if n == 1 {
		srv := server.New(server.Config{CacheBytes: fleetCacheBytes, Logger: quietLog, DisableAccessLog: true})
		f.nodes = []*node{{srv: srv}}
		return f, nil
	}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
		f.idx[urls[i]] = i
	}
	f.ring = cluster.NewRing(cluster.DefaultVNodes, urls)
	for i, ln := range lns {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		srv := server.New(server.Config{
			NodeID:           fmt.Sprintf("node%d", i),
			ClusterSelfURL:   urls[i],
			ClusterPeers:     peers,
			CacheBytes:       fleetCacheBytes / int64(n),
			Logger:           quietLog,
			DisableAccessLog: true,
		})
		nd := &node{srv: srv, url: urls[i], done: make(chan struct{})}
		nd.hs = &http.Server{Handler: nd, ErrorLog: quietLog}
		go func() {
			defer close(nd.done)
			nd.hs.Serve(ln)
		}()
		f.nodes = append(f.nodes, nd)
	}
	// Membership is optimistic (every peer starts alive), so the ring
	// is complete once each node reports every member.
	for _, nd := range f.nodes {
		if got := nd.srv.Cluster().Ring().Len(); got != n {
			f.close()
			return nil, fmt.Errorf("ring has %d of %d members", got, n)
		}
	}
	return f, nil
}

// ServeHTTP is the listener-side wrapper: peer traffic enters here, so
// the owner side of each forwarded evaluation is timed when tracing is
// on. Job submissions and shards are not evaluations and are not timed.
func (nd *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if nd.owner == nil || r.Header.Get(cluster.ForwardHeader) == "" || !slices.Contains(routePaths, r.URL.Path) {
		nd.srv.Handler().ServeHTTP(w, r)
		return
	}
	start := time.Now()
	nd.srv.Handler().ServeHTTP(w, r)
	nd.owner.add(time.Since(start))
}

// ownerSpans collects owner-side durations of forwarded evaluations.
type ownerSpans struct {
	mu  sync.Mutex
	dur []float64 // µs
}

func (o *ownerSpans) add(d time.Duration) {
	o.mu.Lock()
	o.dur = append(o.dur, us(d))
	o.mu.Unlock()
}

// durations copies the spans out; the owner side records a span after
// its response is written, so a reader may race the last few.
func (o *ownerSpans) durations() []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.dur)
}

func (f *fleet) close() {
	for _, nd := range f.nodes {
		if nd.hs != nil {
			nd.hs.Close()
			<-nd.done
		}
	}
	for _, nd := range f.nodes {
		nd.srv.Close()
	}
}

// owner returns the index of the node owning a canonical key.
func (f *fleet) owner(key string) int {
	if f.ring == nil {
		return 0
	}
	return f.idx[f.ring.Owner(key)]
}

// ---- in-process dispatch ---------------------------------------------

// recorder is a reusable, minimal http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.body.Reset()
}

// do dispatches one request into h and returns the status code.
func (r *recorder) do(h http.Handler, method, path string, body []byte) int {
	r.reset()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, path, rd)
	if err != nil {
		panic(err) // method and path are the benchmark's own constants
	}
	if body != nil {
		req.Header["Content-Type"] = []string{"application/json"}
	}
	h.ServeHTTP(r, req)
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.code
}

// ---- counters --------------------------------------------------------

// scrape reads a node's /metrics exposition into series → value.
func scrape(h http.Handler) map[string]float64 {
	rec := newRecorder()
	rec.do(h, http.MethodGet, "/metrics", nil)
	out := make(map[string]float64)
	sc := bufio.NewScanner(&rec.body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of one metric name, across label sets.
func sum(m map[string]float64, name string) float64 {
	var t float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// counters is a snapshot of every node's exposition.
type counters []map[string]float64

func (f *fleet) counters() counters {
	c := make(counters, len(f.nodes))
	for i, nd := range f.nodes {
		c[i] = scrape(nd.srv.Handler())
	}
	return c
}

// add accumulates after − before, series by series, into c.
func (c counters) add(before, after counters) {
	for i := range after {
		if c[i] == nil {
			c[i] = make(map[string]float64)
		}
		for k, v := range after[i] {
			c[i][k] += v - before[i][k]
		}
	}
}

// get sums one metric on node i (i < 0: every node).
func (c counters) get(i int, name string) float64 {
	if i >= 0 {
		return sum(c[i], name)
	}
	var t float64
	for j := range c {
		t += sum(c[j], name)
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
