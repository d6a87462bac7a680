// Command perfbench is the end-to-end and per-layer benchmark of the BEACON
// simulator. One invocation runs one workload: it builds the inputs from
// --seed, measures for about --seconds, checks every output, and prints one
// JSON result as the last line of standard output. With --trace 1 it runs
// the workload again with spans around its calls into each layer and
// reports the per-layer metrics instead. README.md lists the workloads and
// metrics; run.sh builds the benchmark and the daemon and runs it:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name to figure.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// merge copies src into m; src wins on a name both hold.
func (m metrics) merge(src metrics) {
	for k, v := range src {
		m[k] = v
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// checks counts checked outputs. A failed check is a failed operation.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// check records one checked output and logs a failure to stderr.
func (c *checks) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// env is what a workload's run function gets.
type env struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil unless --trace 1
	ref     *refLoop
	simd    string // beaconsimd binary
	tmp     string // temporary directory inside the checkout
	checks  checks
}

// traced reports whether this is the per-layer run.
func (e *env) traced() bool { return e.tr != nil }

// workloads maps --workload names to run functions. Each returns the
// end-to-end metrics, or with tracing on the per-layer metrics.
var workloads = map[string]func(*env) (metrics, error){
	"replay":  runReplay,
	"service": runService,
}

// The benchmark and the daemons it starts share one CPU and run Go on
// one thread. On a shared host the second core of a two-core box comes
// and goes for minutes at a time: work spread over both cores then slows
// by up to two times, serial work by a half at most, and the reference
// loop (host.go) can only read the speed of the CPU it runs on.
func main() {
	runtime.GOMAXPROCS(1)
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pin to one CPU:", err)
		os.Exit(1)
	}
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 12, "measuring time per run")
		trace    = flag.Int("trace", 0, "1 = per-layer traced run")
		simd     = flag.String("simd", "", "beaconsimd binary (the service workloads)")
		tmp      = flag.String("tmp", "", "temporary directory inside the checkout")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *tmp == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1 and -tmp\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := os.MkdirTemp(*tmp, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), simd: *simd, tmp: dir, ref: newRefLoop()}
	if *trace == 1 {
		e.tr = newTracer()
	}
	m, err := drive(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.traced() {
		m.set("bench.ref_ms", median(e.ref.times)*1e3, "ms")
		path := filepath.Join(*tmp, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := e.tr.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", e.tr.len(), path)
	}
	res := result{
		Correct:   e.checks.failed == 0,
		Attempted: e.checks.attempted,
		Failed:    e.checks.failed,
		Metrics:   m,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mix derives an independent 64-bit seed from a base seed and a stream
// number (splitmix64), so each input the benchmark generates has its own
// seed and the same --seed always yields the same inputs.
func mix(seed, stream uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
