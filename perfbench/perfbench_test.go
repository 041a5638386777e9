package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// requestTrace renders n requests of one stream as bytes.
func requestTrace(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	m, err := newMix(seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st := m.stream(seed, 0)
	for i := 0; i < n; i++ {
		er := st.next()
		buf.WriteString(er.Path())
		buf.Write(er.Body)
	}
	for _, a := range schedule(&fleet{nodes: make([]*node, 3)}, m, seed, 1000, 1000, 2e9) {
		buf.WriteString(a.due.String())
		buf.Write(a.req.Body)
		buf.WriteByte(byte(a.node))
	}
	return buf.Bytes()
}

func jobTrace(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	dom, err := newDomain()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	g := newJobStream(dom, seed, 0)
	for i := 0; i < n; i++ {
		b, err := json.Marshal(g.next())
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := requestTrace(t, 7, 5000), requestTrace(t, 7, 5000)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed gave two request sequences")
	}
	if bytes.Equal(a, requestTrace(t, 8, 5000)) {
		t.Fatal("two seeds gave one request sequence")
	}
	if !bytes.Equal(jobTrace(t, 7, 200), jobTrace(t, 7, 200)) {
		t.Fatal("one seed gave two job sequences")
	}
	if bytes.Equal(jobTrace(t, 7, 200), jobTrace(t, 8, 200)) {
		t.Fatal("two seeds gave one job sequence")
	}
}

func TestMixShares(t *testing.T) {
	m, err := newMix(3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	routes := make([]float64, len(routePaths))
	classes := make([]float64, 3)
	st := m.stream(3, 0)
	for i := 0; i < n; i++ {
		er := st.next()
		routes[er.Route]++
		classes[er.Class]++
	}
	// Fresh keys never use the heavy route, so the route weights hold
	// for the popular share and are renormalised over the cheap routes
	// for the fresh share.
	cheap := 1 - routeWeights[routeSens]
	for r, w := range routeWeights {
		want := popularShare * w
		if r != routeSens {
			want += (1 - popularShare) * w / cheap
		}
		if got := routes[r] / n; math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.4f, want %.4f", routePaths[r], got, want)
		}
	}
	for c, want := range []float64{popularShare, freshNShare, 1 - popularShare - freshNShare} {
		if got := classes[c] / n; math.Abs(got-want) > 0.01 {
			t.Errorf("class %d share %.4f, want %.4f", c, got, want)
		}
	}

	dom, _ := newDomain()
	g := newJobStream(dom, 3, 0)
	kinds := map[string]int{}
	for i := 0; i < 4*50; i++ {
		kinds[g.next().Kind]++
	}
	for _, k := range jobKinds {
		if kinds[k] != 50 {
			t.Errorf("%s: %d of 200 jobs, want 50", k, kinds[k])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{4, 2, 3, 1}, 0.5); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2 (nearest rank)", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	cases := []struct {
		children []span
		want     int64
	}{
		{nil, 100},
		{[]span{{Start: 10, End: 20}}, 90},
		// Overlapping children count once; parts outside the parent not
		// at all.
		{[]span{{Start: 15, End: 30}, {Start: 10, End: 20}, {Start: 50, End: 60}, {Start: 90, End: 120}}, 60},
		{[]span{{Start: -5, End: 200}}, 0},
		{[]span{{Start: 100, End: 110}}, 100},
	}
	for i, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("case %d: self time %d, want %d", i, got, c.want)
		}
	}
}

func TestValidity(t *testing.T) {
	clean := counters{{"ttmcas_admission_shed_total": 2}}
	if why := validity(clean, clean, 0, 900, 1000); len(why) != 0 {
		t.Fatalf("clean run marked invalid: %v", why)
	}
	shed := counters{{"ttmcas_admission_shed_total": 3}}
	for name, why := range map[string][]string{
		"failed": validity(clean, clean, 1, 0, 1000),
		"shed":   validity(clean, shed, 0, 0, 1000),
		"late":   validity(clean, clean, 0, 1001, 1000),
		"all":    validity(clean, shed, 2, 5000, 1000),
	} {
		if len(why) == 0 {
			t.Errorf("%s: run not marked invalid", name)
		}
	}
	if why := validity(clean, shed, 2, 5000, 1000); len(why) != 3 {
		t.Errorf("want three reasons, got %v", why)
	}
}
