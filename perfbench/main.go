// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time, checks every output it
// produced and prints, as its last line, a JSON object with the
// end-to-end metrics (or, with -trace 1, the per-layer metrics):
//
//	go run . --workload campaign --seed 1 --seconds 25 --trace 0
//
// Workloads are described in README.md next to this file. run.sh builds
// this package from the checkout and runs it with the same arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// workloads maps a workload name to the function that runs it. Each sets up
// several times, measures for the given duration (or, traced, a fixed
// amount of work) and checks its outputs.
var workloads = map[string]func(opts options) (*report, error){
	"campaign":     runCampaign,
	"serve-miss":   runServeMiss,
	"serve-hit":    runServeHit,
	"fleet-replay": runFleet,
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// setupRounds is how many times every workload builds its state anew;
// setup_s is the median CPU time, and the last round is the one
// measured.
const setupRounds = 3

// report is what a workload hands back to main: raw samples for the
// end-to-end metrics, per-layer values for traced runs, and the outcome
// of the output checks. Every end-to-end time is process CPU time (see
// cpuNow), not wall time.
type report struct {
	setupS []float64 // CPU seconds of each setup round
	passS  []float64 // CPU seconds of each pass of the workload's fixed work

	// Closed-loop throughput: work items completed over busyS CPU
	// seconds of passes.
	items int64
	busyS float64

	opMS []float64 // CPU milliseconds of each operation, behind p50_cpu_ms
	// tailMS holds the p99 of each window of operations (a pass, or the
	// whole sequential loop); p99_cpu_ms is their median.
	tailMS []float64

	heapMB float64 // live heap at the end of the measured phase

	layers map[string]float64 // per-layer metrics of a traced run

	attempted, failed int64
	problems          []string // failed output checks
	digest            string   // sha256 over the run's checked outputs
	notes             []string // diagnostics printed before the result
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "workload seed; equal seeds generate equal inputs")
		seconds = flag.Float64("seconds", 25, "measurement time per run")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("peak resident set %.1f MB\n", maxRSSMB())
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	fmt.Printf("outputs %s seed=%d sha256=%s\n", *name, *seed, rep.digest)
	res := result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
	}
	if *trace == 1 {
		// The traced run's own end-to-end figures; their difference from
		// an untraced run's is the tracing overhead.
		e2e, _ := json.Marshal(endToEnd(rep))
		fmt.Printf("traced end-to-end %s\n", e2e)
		res.Metrics, err = layerMetrics(rep.layers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		res.Metrics = endToEnd(rep)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd reduces a report to the metrics BENCHMARK.json lists under
// end_to_end. README.md gives each one's meaning per workload.
func endToEnd(r *report) map[string]metric {
	return map[string]metric{
		"setup_s":         {median(r.setupS), "s"},
		"live_heap_mb":    {r.heapMB, "MB"},
		"pass_cpu_s":      {median(r.passS), "s"},
		"items_per_cpu_s": {float64(r.items) / r.busyS, "1/s"},
		"p50_cpu_ms":      {percentile(r.opMS, 50), "ms"},
		"p99_cpu_ms":      {median(r.tailMS), "ms"},
	}
}

// liveHeapMB is the heap the process still reaches after a full
// collection: what a workload holds in memory (caches, memos, traces),
// without the collector's timing, which moves peak resident memory by
// up to a fifth from one run of a small heap to the next.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuNow is the CPU time, user and system, the process's threads have
// used so far (CLOCK_PROCESS_CPUTIME_ID, in nanoseconds). The benchmark
// reports CPU time rather than wall time: on a shared host, time the
// process waits for a core (neighbours' load, or the hypervisor running
// another guest's vCPU) moves wall time by tens of percent from one run
// to the next and is not the program's cost.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// timeSetups runs build setupRounds times, closing every round but the
// last, and records each round's CPU time. A garbage collection between
// rounds keeps one round's garbage from being billed to the next.
func timeSetups[T any](r *report, build func() (T, error), closeFn func(T)) (T, error) {
	var last T
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		start := cpuNow()
		v, err := build()
		if err != nil {
			return last, err
		}
		r.setupS = append(r.setupS, (cpuNow() - start).Seconds())
		if i < setupRounds-1 {
			closeFn(v)
		}
		last = v
	}
	runtime.GC()
	return last, nil
}
