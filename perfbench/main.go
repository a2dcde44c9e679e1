// Command perfbench is enrichdb's benchmark. It runs one named workload
// with a seed for a fixed time, checks every answer against a reference it
// computes independently, and prints each metric by name with its unit and
// sample count, then one JSON line with the gated metrics.
//
//	perfbench --workload cold_enrich --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics through the public API and the
// wire client with tracing off; --trace 1 runs the same workload with the
// benchmark timing its calls into each module and reports the per-layer
// metrics, the time they leave unaccounted and the tracing overhead.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	size      string // "full", or "tiny" in the self-tests
	setupReps int
}

var workloads = map[string]func(config) (*result, error){
	"cold_enrich":    coldWorkload,
	"warm_analytics": warmWorkload,
	"serve_mixed":    serveWorkload,
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "cold_enrich, warm_analytics or serve_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.size = "full"
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.setupReps = 3
	if cfg.trace {
		cfg.setupReps = 1
	}
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	if err == nil {
		err = res.write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
