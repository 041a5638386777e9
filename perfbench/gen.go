package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"ttmcas"
	"ttmcas/internal/jobs"
	"ttmcas/internal/server"
	"ttmcas/internal/timeline"
)

// Seeded input generation. Everything the program receives is drawn
// here from the --seed value: the same seed yields byte-identical
// request and job sequences (see gen_test.go).

// Routes of the interactive mix and their weights. Sensitivity
// requests repeat popular keys only: a fresh 64-sample Sobol miss holds
// both CPUs for 0.2-4 ms, so at any share near the 1% tail the open
// loop's p99 would flip between the miss mode and the queue behind it.
var (
	routePaths   = []string{"/v1/ttm", "/v1/cas", "/v1/cost", "/v1/sensitivity"}
	routeWeights = []float64{0.61, 0.20, 0.17, 0.02}
)

const (
	routeTTM = iota
	routeCAS
	routeCost
	routeSens
)

// Request classes. Popular keys are warmed before timing, so they hit
// the response cache; fresh keys miss it. Fresh-n keys reuse a warmed
// evaluator base and change only the chip count (evaluator-cache hit);
// fresh-compile keys draw a new capacity, which forces a compile.
const (
	classPopular = iota
	classFreshN
	classFreshCompile
)

const (
	popularShare = 0.80
	freshNShare  = 0.10 // the remaining 0.10 is fresh-compile
	popularKeys  = 4000
	evalBases    = 48
	// sensSamples is the Saltelli base count of /v1/sensitivity requests.
	sensSamples = 64
)

// evalReq is one generated interactive request.
type evalReq struct {
	Route int
	Class int
	Req   server.EvalRequest
	Body  []byte
}

// Path returns the request's URL path.
func (r evalReq) Path() string { return routePaths[r.Route] }

// base is a (design, node, conditions) triple whose model evaluation
// is known to be finite — the unit the evaluator cache keys on.
type base struct {
	Design   string
	Node     string
	Scenario string
	Capacity float64
}

func (b base) request(route int, n float64) server.EvalRequest {
	req := server.EvalRequest{Design: b.Design, Node: b.Node, N: n, Scenario: b.Scenario, Capacity: b.Capacity}
	if route == routeSens {
		req.Samples = sensSamples
		req.Seed = 7
	}
	return req
}

// domain lists every (design, producing node) pair and every condition
// choice that evaluates to a finite TTM, CAS and cost: what the
// generators draw from, so no generated request is invalid.
type domain struct {
	pairs      [][2]string // design, node
	conditions []base      // Scenario or Capacity set
}

func newDomain() (*domain, error) {
	var conds []base
	for _, s := range ttmcas.Scenarios() {
		conds = append(conds, base{Scenario: s.Name})
	}
	for _, c := range []float64{0.5, 0.75} {
		conds = append(conds, base{Capacity: c})
	}
	dom := &domain{}
	for _, name := range ttmcas.DesignNames() {
		for _, node := range ttmcas.ProducingNodes() {
			pair := [2]string{name, node.String()}
			ok := true
			for _, c := range append(conds, base{Capacity: 0.3}) {
				c.Design, c.Node = pair[0], pair[1]
				if !c.valid() {
					ok = false
					break
				}
			}
			if ok {
				dom.pairs = append(dom.pairs, pair)
			}
		}
	}
	dom.conditions = conds
	if len(dom.pairs) < 8 {
		return nil, fmt.Errorf("only %d valid design/node pairs", len(dom.pairs))
	}
	return dom, nil
}

// valid reports whether the base evaluates finitely at the extremes of
// the generated chip counts.
func (b base) valid() bool {
	for _, n := range []float64{1e5, 1e8} {
		d, c, err := resolve(b.request(routeTTM, n))
		if err != nil {
			return false
		}
		res, err := ttmcas.Evaluate(d, n, c)
		if err != nil || math.IsInf(float64(res.TTM), 0) || math.IsNaN(float64(res.TTM)) {
			return false
		}
		if _, err := ttmcas.CAS(d, n, c); err != nil {
			return false
		}
		if _, err := ttmcas.Cost(d, n); err != nil {
			return false
		}
	}
	return true
}

// mix is the interactive request mix of one seed: the evaluator bases
// and the popular key set, both fixed before timing. Popular keys are
// kept per route, so a request draws its route by weight and then a key
// of that route by Zipf rank: route shares follow the weights however
// the Zipf head falls.
type mix struct {
	dom     *domain
	bases   []base
	popular [][]evalReq // by route
}

func newMix(seed uint64) (*mix, error) {
	dom, err := newDomain()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(seed, 0x6d6978))
	m := &mix{dom: dom, popular: make([][]evalReq, len(routePaths))}
	for len(m.bases) < evalBases {
		p := dom.pairs[r.IntN(len(dom.pairs))]
		b := dom.conditions[r.IntN(len(dom.conditions))]
		b.Design, b.Node = p[0], p[1]
		m.bases = append(m.bases, b)
	}
	for route, w := range routeWeights {
		seen := make(map[string]bool)
		for len(m.popular[route]) < int(w*popularKeys) {
			b := m.bases[r.IntN(len(m.bases))]
			// Popular chip counts come from a coarse grid, so the key set
			// is finite and repeats.
			n := math.Round(math.Pow(10, 5+3*r.Float64())/1000) * 1000
			er := makeReq(route, classPopular, b.request(route, n))
			if !seen[string(er.Body)] {
				seen[string(er.Body)] = true
				m.popular[route] = append(m.popular[route], er)
			}
		}
	}
	return m, nil
}

// allPopular lists every popular key, route by route.
func (m *mix) allPopular() []evalReq {
	var out []evalReq
	for _, keys := range m.popular {
		out = append(out, keys...)
	}
	return out
}

func pickRoute(r *rand.Rand) int {
	u := r.Float64()
	for i, w := range routeWeights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(routeWeights) - 1
}

// pickFreshRoute draws a route for a fresh key: the cheap routes, in
// their relative weights.
func pickFreshRoute(r *rand.Rand) int {
	for {
		if route := pickRoute(r); route != routeSens {
			return route
		}
	}
}

func makeReq(route, class int, req server.EvalRequest) evalReq {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // EvalRequest of plain fields always marshals
	}
	return evalReq{Route: route, Class: class, Req: req, Body: body}
}

// reqStream draws one client's request sequence.
type reqStream struct {
	m       *mix
	r       *rand.Rand
	popZipf []*rand.Zipf // by route
}

// zipfS and zipfV shape the popularity of keys: P(rank k) is
// proportional to (zipfV+k)^-zipfS. The offset keeps the head from
// being one or two keys, whose route and design would then set the
// hit cost of a whole run and differ from seed to seed.
const (
	zipfS = 1.1
	zipfV = 50
)

// stream returns the deterministic request stream number id of a seed.
func (m *mix) stream(seed uint64, id int) *reqStream {
	r := rand.New(rand.NewPCG(seed, 0x73747200+uint64(id)))
	s := &reqStream{m: m, r: r}
	for _, keys := range m.popular {
		s.popZipf = append(s.popZipf, rand.NewZipf(r, zipfS, zipfV, uint64(len(keys)-1)))
	}
	return s
}

func (s *reqStream) next() evalReq {
	u := s.r.Float64()
	switch {
	case u < popularShare:
		route := pickRoute(s.r)
		return s.m.popular[route][s.popZipf[route].Uint64()]
	case u < popularShare+freshNShare:
		route := pickFreshRoute(s.r)
		b := s.m.bases[s.r.IntN(len(s.m.bases))]
		return makeReq(route, classFreshN, b.request(route, freshN(s.r)))
	default:
		route := pickFreshRoute(s.r)
		p := s.m.dom.pairs[s.r.IntN(len(s.m.dom.pairs))]
		b := base{Design: p[0], Node: p[1], Capacity: 0.3 + 0.7*s.r.Float64()}
		return makeReq(route, classFreshCompile, b.request(route, freshN(s.r)))
	}
}

// freshN draws a chip count off the popular grid.
func freshN(r *rand.Rand) float64 { return math.Pow(10, 5+3*r.Float64()) }

// resolve mirrors the server's request resolution through the public
// ttmcas API, for the replay spans and the correctness check.
func resolve(req server.EvalRequest) (ttmcas.Design, ttmcas.Conditions, error) {
	d, err := ttmcas.DesignByName(req.Design)
	if err != nil {
		return d, ttmcas.Conditions{}, err
	}
	if req.Node != "" {
		n, err := ttmcas.ParseNode(req.Node)
		if err != nil {
			return d, ttmcas.Conditions{}, err
		}
		d = d.Retarget(n)
	}
	if req.Scenario != "" {
		s, ok := ttmcas.FindScenario(req.Scenario)
		if !ok {
			return d, ttmcas.Conditions{}, fmt.Errorf("unknown scenario %q", req.Scenario)
		}
		return d, s.Conditions, nil
	}
	c := ttmcas.FullCapacity()
	if req.Capacity != 0 {
		c = c.AtCapacity(req.Capacity)
	}
	return d, c, nil
}

// ---- batch jobs ------------------------------------------------------

// Job kinds of the batch mix, with specs sized so their single-job run
// times are within 2x of each other. mc-band, sensitivity and timeline
// specs exceed the cluster's DistMinEvaluations (4096) so they scatter
// on a ring; a sweep's grid is at most nodes x 64 cells and never does.
var jobKinds = []string{jobs.KindMCBand, jobs.KindSensitivity, jobs.KindSweep, jobs.KindTimeline}

const (
	mcBandSamples = 1280 // x 8 xs x 2 = 20480 evaluations
	sensJobN      = 3072 // x 8 = 24576 evaluations
	sweepQuants   = 48   // x producing nodes
	timelineWeeks = 4400
)

var mcBandXs = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// jobStream draws one submitter's job sequence. Kinds come in blocks of
// one of each, in seeded order, so every prefix of the stream stays
// within one job of an even mix.
type jobStream struct {
	dom   *domain
	r     *rand.Rand
	id    int
	seq   int
	block []string
}

func newJobStream(dom *domain, seed uint64, id int) *jobStream {
	return &jobStream{dom: dom, r: rand.New(rand.NewPCG(seed, 0x6a6f6200+uint64(id))), id: id}
}

func (g *jobStream) next() jobs.Spec {
	if len(g.block) == 0 {
		g.block = append([]string(nil), jobKinds...)
		g.r.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	g.seq++
	p := g.dom.pairs[g.r.IntN(len(g.dom.pairs))]
	spec := jobs.Spec{
		Kind:   kind,
		Design: p[0],
		Node:   p[1],
		N:      math.Round(math.Pow(10, 5+3*g.r.Float64())),
		// Distinct per job and per stream.
		Seed: int64(g.id)<<32 | int64(g.seq),
	}
	switch kind {
	case jobs.KindMCBand:
		spec.Samples = mcBandSamples
		spec.Xs = mcBandXs
	case jobs.KindSensitivity:
		spec.Samples = sensJobN
	case jobs.KindSweep:
		spec.Node = ""
		for i := 0; i < sweepQuants; i++ {
			spec.Quantities = append(spec.Quantities, math.Round(math.Pow(10, 4+4*g.r.Float64())))
		}
	case jobs.KindTimeline:
		// The base scenario lives inside the timeline spec; a fab outage
		// on the design's node keeps every step finite (capacity > 0).
		spec.Timeline = &timeline.Spec{
			Name:         "bench",
			HorizonWeeks: timelineWeeks,
			Segments: []timeline.Segment{{
				Kind: "fab-outage", Node: p[1],
				StartWeek: 10 + 50*g.r.Float64(), EndWeek: 200 + 100*g.r.Float64(),
				Depth: 0.2 + 0.5*g.r.Float64(),
			}},
		}
	}
	return spec
}
