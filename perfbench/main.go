// Command perfbench is the repository's benchmark. It runs one workload per
// invocation and prints, as its last line, one JSON object with the
// workload's metrics:
//
//	perfbench --workload des-churn --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md describes them; BENCHMARK.json says why the first
// two are the ones runs are judged on):
//
//	des-churn  the discrete-event simulator in-process: 3000 peers, Poisson
//	           lookups, a crash wave and Poisson joins and leaves
//	kv-write   a 2-process TCP cluster of cmd/hybridnode at k=3 serving
//	           /kv, closed loop, half PUTs, half GETs
//	kv-read    traced only (--trace 1): the same cluster at k=1, GETs in an
//	           open loop at a fixed low rate, then in a closed loop
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports per-layer self times, counts and set-up phases instead.
// The kv workloads need the node binaries built by run.sh next to this one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics and the outcome of its checks.
type report struct {
	metrics map[string]metric
	// notes are printed with the metrics but left out of the JSON line:
	// the workload's own names for values the metrics carry, and context.
	notes map[string]metric
	ops   tally
	errs  []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), notes: make(map[string]metric)}
}

func (r *report) note(name string, v float64, unit string) {
	r.notes[name] = metric{Value: v, Unit: unit}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed output check; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.errs = append(r.errs, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// pct sets a percentile metric from samples, failing the run when too few
// samples lie beyond it to report it.
func (r *report) pct(name string, xs []float64, p float64, unit string) {
	v, ok := percentile(xs, p)
	if !ok {
		r.fail("%s: %d samples are too few for p%g", name, len(xs), p)
	}
	r.set(name, v, unit)
}

// endToEnd lists the end-to-end metrics every workload reports, with their
// units. On des-churn the latencies are simulated (the paper's metric) and
// memory is the live heap after set-up; on the kv workloads they are wall
// clock and the cluster's resident set. Latency is summarised by its mean
// and p90, not its median: a closed loop's latencies fall in two modes (see
// README.md), and the median jumps between them from run to run. ok_ratio
// is the share of operations answered correctly: des-churn lookups that
// find nothing after the crash wave lower it; a wrong value, and on
// kv-write any failed request, also fails the run.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"get_mean_ms", "ms"}, {"get_p90_ms", "ms"},
	{"put_mean_ms", "ms"}, {"put_p90_ms", "ms"}, {"cpu_us_per_op", "us"}, {"mem_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// checkNames fails the run unless it reported exactly the metrics in want.
func (r *report) checkNames(want [][2]string) {
	if len(r.metrics) != len(want) {
		r.fail("%d metrics reported, want %d", len(r.metrics), len(want))
	}
	for _, nu := range want {
		if m, ok := r.metrics[nu[0]]; !ok || m.Unit != nu[1] {
			r.fail("metric %s (%s) missing", nu[0], nu[1])
		}
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds int, trace bool, r *report) error{
	"des-churn": benchDES,
	"kv-read":   benchKVRead,
	"kv-write":  benchKVWrite,
}

func main() {
	name := flag.String("workload", "", "workload to run: des-churn, kv-read or kv-write")
	seed := flag.Int64("seed", 1, "seed every input is drawn from")
	seconds := flag.Int("seconds", 20, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {des-churn|kv-read|kv-write} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	// One load-generating process may use every core, and no more.
	goruntime.GOMAXPROCS(min(goruntime.NumCPU(), goruntime.GOMAXPROCS(0)))

	// Interrupted, stop the clusters before exiting; were the benchmark
	// killed outright, the kernel kills them (see cluster.start).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	r := newReport()
	steal0, total0 := hostSteal()
	if err := run(*seed, *seconds, *trace == 1, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if steal, total := hostSteal(); total > total0 {
		// Time the hypervisor ran something else: context for a noisy run.
		r.note("host.steal_pct", float64(steal-steal0)/float64(total-total0)*100, "%")
	}
	if r.ops.attempted == 0 {
		r.fail("no operations attempted")
	}
	if *trace == 1 {
		r.checkNames(layerUnits())
	} else {
		r.checkNames(endToEnd)
	}
	printMetrics("", r.metrics)
	printMetrics("  (", r.notes)
	out, err := json.Marshal(result{
		Correct:   len(r.errs) == 0,
		Attempted: r.ops.attempted,
		Failed:    r.ops.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printMetrics prints one aligned line per metric, sorted by name.
func printMetrics(prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s%-40s %14.6g %s\n", prefix, n, ms[n].Value, ms[n].Unit)
	}
}

// hostSteal reads the host's steal and total CPU time, in clock ticks,
// from /proc/stat; zeros when it cannot.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
