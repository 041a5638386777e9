package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"ttmcas"
	"ttmcas/internal/core"
	"ttmcas/internal/jobs"
	"ttmcas/internal/mc"
	"ttmcas/internal/sens"
	"ttmcas/internal/server"
	"ttmcas/internal/timeline"
	"ttmcas/internal/units"
)

// Correctness checks, run after timing on the retained samples. Two
// values compare equal here only when their canonical JSON encodings
// are byte-identical, which for finite floats is bitwise equality.

// expected computes the response a request must produce, directly from
// the public model API and without the server.
func expected(er evalReq) (any, error) {
	d, c, err := resolve(er.Req)
	if err != nil {
		return nil, err
	}
	n := er.Req.N
	switch er.Route {
	case routeTTM:
		res, err := ttmcas.Evaluate(d, n, c)
		if err != nil {
			return nil, err
		}
		return ttmResponse(d, n, c, res), nil
	case routeCAS:
		res, err := ttmcas.CAS(d, n, c)
		if err != nil {
			return nil, err
		}
		return casResponse(d, n, c, res), nil
	case routeCost:
		b, err := ttmcas.Cost(d, n)
		if err != nil {
			return nil, err
		}
		return costResponse(d, n, b), nil
	default:
		res, err := ttmcas.Sensitivity(d, n, c, ttmcas.SensitivityConfig{N: er.Req.Samples, Variation: er.Req.Variation, Seed: er.Req.Seed})
		if err != nil {
			return nil, err
		}
		return server.SensitivityResponse{
			Design: d.Name, Chips: n, Conditions: c.String(),
			Inputs: res.Inputs, TotalEffect: res.Total, FirstOrder: res.First,
			VarY: res.VarY, Evaluations: res.Evaluations,
		}, nil
	}
}

func ttmResponse(d ttmcas.Design, n float64, c ttmcas.Conditions, res ttmcas.Result) server.TTMResponse {
	out := server.TTMResponse{
		Design:           d.Name,
		Chips:            n,
		Conditions:       c.String(),
		DesignWeeks:      float64(res.DesignTime),
		TapeoutWeeks:     float64(res.Tapeout),
		FabricationWeeks: float64(res.Fabrication),
		PackagingWeeks:   float64(res.Packaging),
		TTMWeeks:         float64(res.TTM),
		CriticalNode:     res.CriticalNode.String(),
	}
	for _, die := range res.Dies {
		out.Dies = append(out.Dies, server.DieResponse{
			Name: die.Name, Node: die.Node.String(), AreaMM2: float64(die.Area),
			Yield: die.Yield, GrossPerWafer: die.GrossPerWafer, Wafers: float64(die.Wafers),
		})
	}
	for _, nf := range res.Nodes {
		out.Nodes = append(out.Nodes, server.NodeResponse{
			Node: nf.Node.String(), Wafers: float64(nf.Wafers),
			QueueWeeks: float64(nf.Queue), ProductionWeeks: float64(nf.Production),
			TotalWeeks: float64(nf.FabTotal),
		})
	}
	return out
}

func casResponse(d ttmcas.Design, n float64, c ttmcas.Conditions, res ttmcas.CASResult) server.CASResponse {
	out := server.CASResponse{Design: d.Name, Chips: n, Conditions: c.String(), CAS: res.CAS}
	out.Derivatives = make(map[string]float64, len(res.Derivatives))
	for node, der := range res.Derivatives {
		out.Derivatives[node.String()] = der
	}
	return out
}

func costResponse(d ttmcas.Design, n float64, b ttmcas.CostBreakdown) server.CostResponse {
	return server.CostResponse{
		Design:        d.Name,
		Chips:         n,
		MaskNREUSD:    float64(b.MaskNRE),
		TapeoutNREUSD: float64(b.TapeoutNRE),
		WafersUSD:     float64(b.Wafers),
		WaferCount:    float64(b.WaferCount),
		PackagingUSD:  float64(b.Packaging),
		TotalUSD:      float64(b.Total),
		PerChipUSD:    float64(b.PerChip),
	}
}

// decoded re-encodes a response body through the route's response type.
func decoded(route int, body []byte) ([]byte, error) {
	var v any
	switch route {
	case routeTTM:
		v = new(server.TTMResponse)
	case routeCAS:
		v = new(server.CASResponse)
	case routeCost:
		v = new(server.CostResponse)
	default:
		v = new(server.SensitivityResponse)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// checkEvals compares every retained response's decoded values with a
// direct model call.
func checkEvals(samples []sample) (int, error) {
	for _, s := range samples {
		got, err := decoded(s.req.Route, s.body)
		if err != nil {
			return 0, fmt.Errorf("%s %s: decoding response: %v", s.req.Path(), s.req.Body, err)
		}
		want, err := expected(s.req)
		if err != nil {
			return 0, fmt.Errorf("%s %s: direct call: %v", s.req.Path(), s.req.Body, err)
		}
		wb, err := json.Marshal(want)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, wb) {
			return 0, fmt.Errorf("%s %s: response differs from direct call:\n got %s\nwant %s", s.req.Path(), s.req.Body, got, wb)
		}
	}
	return len(samples), nil
}

// checkForwards compares forwarded bodies byte for byte with a local
// compute of the same request on a standalone server.
func checkForwards(samples []sample, limit int) (int, error) {
	ref := server.New(server.Config{Logger: quietLog, DisableAccessLog: true})
	defer ref.Close()
	rec := newRecorder()
	n := 0
	for _, s := range samples {
		if s.cache != "FWD" || n >= limit {
			continue
		}
		n++
		if code := rec.do(ref.Handler(), http.MethodPost, s.req.Path(), s.req.Body); code != http.StatusOK {
			return n, fmt.Errorf("%s %s: local compute %d", s.req.Path(), s.req.Body, code)
		}
		if !bytes.Equal(rec.body.Bytes(), s.body) {
			return n, fmt.Errorf("%s %s: forwarded body differs from local compute:\n fwd %s\nlocal %s", s.req.Path(), s.req.Body, s.body, rec.body.Bytes())
		}
	}
	return n, nil
}

// checkJobs compares one result per kind with a direct engine call on
// the same spec and seed.
func checkJobs(done []jobRecord) (int, error) {
	seen := make(map[string]bool)
	for _, j := range done {
		if j.result == nil || seen[j.kind] {
			continue
		}
		seen[j.kind] = true
		want, err := engine(j.spec)
		if err != nil {
			return 0, fmt.Errorf("%s job: direct engine call: %v", j.kind, err)
		}
		wb, err := json.Marshal(want)
		if err != nil {
			return 0, err
		}
		var got bytes.Buffer
		if err := json.Compact(&got, j.result); err != nil {
			return 0, err
		}
		if !bytes.Equal(got.Bytes(), wb) {
			return 0, fmt.Errorf("%s job (seed %d): result differs from direct engine call", j.kind, j.spec.Seed)
		}
	}
	return len(seen), nil
}

// engine runs a job spec straight through its engine package —
// mc.BandCurveEval, sens.TotalEffectBatch, the sweep's model calls,
// timeline.Compile plus Evaluate — and shapes the result as the job
// does.
func engine(s jobs.Spec) (any, error) {
	ctx := context.Background()
	d, c, err := resolve(server.EvalRequest{Design: s.Design, Node: s.Node})
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case jobs.KindMCBand:
		bands, err := mc.BandCurveEval(ctx, core.Model{}, mc.Config{Samples: s.Samples, Seed: s.Seed}, d, s.N, c, s.Xs, mc.MetricTTM, nil)
		if err != nil {
			return nil, err
		}
		res := jobs.BandResult{Design: d.Name, Metric: "ttm", Chips: s.N, Samples: s.Samples, Seed: s.Seed}
		for _, b := range bands {
			res.Points = append(res.Points, jobs.BandPoint{
				X: b.X, Mean: finite(b.Mean),
				CI10Lo: finite(b.CI10.Lo), CI10Hi: finite(b.CI10.Hi),
				CI25Lo: finite(b.CI25.Lo), CI25Hi: finite(b.CI25.Hi),
			})
		}
		return res, nil
	case jobs.KindSensitivity:
		ev, err := core.Model{}.Compile(d, s.N, c)
		if err != nil {
			return nil, err
		}
		res, err := sens.TotalEffectBatch(ctx, core.Inputs, sens.Config{N: s.Samples, Variation: s.Variation, Seed: s.Seed}, batchEval(ev))
		if err != nil {
			return nil, err
		}
		return jobs.SensitivityResult{
			Design: d.Name, Chips: s.N,
			Inputs: res.Inputs, TotalEffect: res.Total, FirstOrder: res.First,
			VarY: res.VarY, Evaluations: res.Evaluations,
		}, nil
	case jobs.KindSweep:
		var m core.Model
		var cm ttmcas.CostModel
		res := jobs.SweepResult{Design: d.Name}
		for _, node := range ttmcas.ProducingNodes() {
			rd := d.Retarget(node)
			for _, q := range s.Quantities {
				ttm, err := m.TTM(rd, q, c)
				if err != nil {
					return nil, err
				}
				cas, err := m.CAS(rd, q, c)
				if err != nil {
					return nil, err
				}
				total, err := cm.Total(rd, q)
				if err != nil {
					return nil, err
				}
				w := finite(float64(ttm))
				res.Cells = append(res.Cells, jobs.SweepCell{
					Node: node.String(), Quantity: q, TTMWeeks: w, Stalled: w == nil,
					CAS: cas.CAS, CostUSD: float64(total),
				})
			}
		}
		return res, nil
	case jobs.KindTimeline:
		tl, err := timeline.Compile(*s.Timeline, timeline.Limits{MaxSteps: 1 << 20})
		if err != nil {
			return nil, err
		}
		return timeline.Evaluate(ctx, core.Model{}, d, s.N, tl, timeline.Options{})
	}
	return nil, fmt.Errorf("unknown kind %q", s.Kind)
}

// batchEval adapts a compiled evaluator to sens.BatchEval: each worker
// evaluates the Saltelli columns on its own clone with EvalBatch.
func batchEval(ev *core.Evaluator) func() (sens.BatchEval, error) {
	return func() (sens.BatchEval, error) {
		w := ev.Clone()
		var (
			b    core.Batch
			ws   []units.Weeks
			errs core.BatchErrors
		)
		return func(cols [][]float64, out []float64) error {
			b.NTT, b.NUT, b.D0, b.Rate, b.FabLatency, b.TAPLatency = cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]
			if cap(ws) < len(out) {
				ws = make([]units.Weeks, len(out))
			}
			ws = ws[:len(out)]
			if err := w.EvalBatch(&b, ws, &errs); err != nil {
				return err
			}
			for j, t := range ws {
				out[j] = float64(t)
			}
			_, err := errs.First()
			return err
		}, nil
	}
}

func finite(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}
