// Command perfbench is the repository's benchmark: seeded workloads run
// against in-process servers on real compute, with end-to-end metrics
// from an untraced run and a per-layer breakdown from a traced one. See
// README.md; run it with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one benchmark input set. Every run measures every
// end-to-end metric, so each workload runs an interactive phase pair
// (closed loop, then open loop) and a batch-job phase on its topology;
// the workload sets the topology and which phase carries the weight.
type workload struct {
	name  string
	nodes int
	// Shares of --seconds given to the closed loop, the open loop and
	// the job loop.
	closed, open, batch float64
	// rate is the open loop's offered load in requests per second (see
	// README.md, "Open-loop rates").
	rate float64
}

var workloads = []workload{
	// One node, the interactive route mix: hits make the median,
	// decode/key/compile/kernel/encode the tail.
	{name: "api-mix", nodes: 1, closed: 0.25, open: 0.50, batch: 0.25, rate: 10000},
	// A 3-node ring behind a placement-blind balancer: ~2/3 of requests
	// are forwarded over loopback, and large jobs scatter shards.
	{name: "cluster-blind", nodes: 3, closed: 0.25, open: 0.50, batch: 0.25, rate: 1000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "api-mix", "workload: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", workloadNames())
		os.Exit(2)
	}
	// Never more processors than the host has CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	cfg := runConfig{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, meta, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	emit(map[string]any{"meta": meta})
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
