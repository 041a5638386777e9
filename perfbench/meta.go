package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// Host and build metadata, recorded with every result.

func metadata(cfg runConfig, nproc int) map[string]any {
	return map[string]any{
		"host": hostInfo(nproc),
		"build": map[string]any{
			"go":          runtime.Version(),
			"source_hash": sourceHash("."),
		},
		"workload": map[string]any{
			"name":            cfg.w.name,
			"seed":            cfg.seed,
			"seconds":         cfg.seconds.Seconds(),
			"traced":          cfg.traced,
			"nodes":           cfg.w.nodes,
			"shares":          []float64{cfg.w.closed, cfg.w.open, cfg.w.batch},
			"open_rate_rps":   cfg.w.rate,
			"clients":         nproc,
			"route_weights":   routeWeights,
			"popular_share":   popularShare,
			"fresh_n_share":   freshNShare,
			"popular_keys":    popularKeys,
			"eval_bases":      evalBases,
			"job_kinds":       jobKinds,
			"mc_band_samples": mcBandSamples,
			"sens_job_n":      sensJobN,
			"sweep_quants":    sweepQuants,
			"timeline_weeks":  timelineWeeks,
		},
	}
}

// hostInfo is what makes two results comparable.
func hostInfo(nproc int) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": nproc,
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources and go.mod files under root,
// the repository root the benchmark runs from (dot-directories, such as
// the build directory, are skipped): the commit identity when the tree
// is not a git checkout.
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
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ---- process counters over a window ---------------------------------

// opWindow is the runtime cost of some operations: allocations and
// GC CPU against total CPU, summed over one or more windows.
type opWindow struct {
	ops           int
	mallocs, byts uint64
	gcCPU, cpu    float64
}

func (o *opWindow) add(w opWindow) {
	o.ops += w.ops
	o.mallocs += w.mallocs
	o.byts += w.byts
	o.gcCPU += w.gcCPU
	o.cpu += w.cpu
}

func (o opWindow) perOp(v uint64) float64 { return float64(v) / float64(max(1, o.ops)) }

func (o opWindow) gcShare() float64 {
	if o.cpu == 0 {
		return 0
	}
	return o.gcCPU / o.cpu
}

type window struct {
	ms      runtime.MemStats
	samples []metrics.Sample
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() []metrics.Sample {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startWindow() *window {
	w := &window{samples: readCPU()}
	runtime.ReadMemStats(&w.ms)
	return w
}

func (w *window) stop(ops int) opWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := readCPU()
	return opWindow{
		ops:     ops,
		mallocs: ms.Mallocs - w.ms.Mallocs,
		byts:    ms.TotalAlloc - w.ms.TotalAlloc,
		gcCPU:   s[0].Value.Float64() - w.samples[0].Value.Float64(),
		cpu:     s[1].Value.Float64() - w.samples[1].Value.Float64(),
	}
}

// ---- comparing saved results -------------------------------------------

// compareMain prints the metric deltas between two saved outputs of the
// benchmark (its standard output, meta line and result line) and flags
// a comparison across hosts.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD NEW")
		return 2
	}
	var meta [2]map[string]any
	var res [2]result
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var probe map[string]json.RawMessage
			if json.Unmarshal([]byte(line), &probe) != nil {
				continue
			}
			if raw, ok := probe["meta"]; ok {
				json.Unmarshal(raw, &meta[i])
			} else if _, ok := probe["metrics"]; ok {
				json.Unmarshal([]byte(line), &res[i])
			}
		}
	}
	h0, _ := json.Marshal(meta[0]["host"])
	h1, _ := json.Marshal(meta[1]["host"])
	if string(h0) != string(h1) {
		fmt.Printf("WARNING: results come from different hosts; deltas are not comparable\n  old: %s\n  new: %s\n", h0, h1)
	}
	var names []string
	for n := range res[1].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %14s %14s %9s\n", "metric", "old", "new", "delta")
	for _, n := range names {
		o, ok := res[0].Metrics[n]
		nv := res[1].Metrics[n]
		if !ok {
			fmt.Printf("%-40s %14s %14.4g %9s\n", n, "-", nv.Value, "")
			continue
		}
		d := "n/a"
		if o.Value != 0 {
			d = fmt.Sprintf("%+.1f%%", 100*(nv.Value-o.Value)/o.Value)
		}
		fmt.Printf("%-40s %14.4g %14.4g %9s  %s\n", n, o.Value, nv.Value, d, nv.Unit)
	}
	return 0
}
