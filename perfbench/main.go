// Command perfbench is the serving benchmark of the TafLoc service: it
// runs the real Service in process on one named workload, measures
// report→estimate latency, saturation throughput and served accuracy,
// checks the served estimates against an offline replay, and prints one
// JSON result line. With --trace 1 it instead reports per-layer figures
// from a traced run. See README.md next to this file.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload locate-hot --seed 1 --seconds 36 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: locate-hot, wire-stream or refresh")
	seed := flag.Int64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Int("seconds", 36, "seconds of timed load (paced plus saturation)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "--seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	paced := float64(*seconds) * pacedShare
	fmt.Printf("env: nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("workload %s (seed %d, trace %d): %s\n", w.name, *seed, *trace, w.why)
	fmt.Printf("phase paced: open loop, %.0f batches/s over %d zones for %.2f s, latency timed from each batch's due time\n",
		float64(pacedRate), w.zones, paced)
	fmt.Printf("phase saturation: closed loop, 1 client (one generator goroutine, %v backoff on queue_full) for %.2f s\n",
		backoff, float64(*seconds)*satShare)

	res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metrics := map[string]any{}
	for _, m := range res.metrics {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
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
