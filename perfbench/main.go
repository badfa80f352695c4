// Command sdvmperf is the SDVM benchmark: it runs one named workload
// against in-process clusters for a fixed time, checks every result the
// program returns, and prints the workload's metrics.
//
//	sdvmperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics, measured with the tracer and metrics registry
// off. With --trace 1 the run measures the workload twice, for half the
// time each — once untraced, once with every site's tracer ring and
// registry on — and the JSON holds the per-layer metrics from the traced
// half plus the tracing overhead (traced minus untraced) of every
// end-to-end metric. The lines above the JSON repeat the figures for
// people, each per-layer metric tagged with the end-to-end metric and
// workload it should move. Any wrong result exits non-zero.
//
// The benchmark reaches the SDVM only from outside: it times the calls
// it makes itself (Bootstrap/Join, Submit/WaitResult, memory
// Read/Write/Alloc) and reads the public counters afterwards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// phase is what one measured pass over a workload produced.
type phase struct {
	attempted int
	failed    int
	// wrong describes every output that failed its check.
	wrong []string
	e2e   map[string]float64
	// layers holds per-layer metrics; filled only by a traced pass.
	layers map[string]float64
	// retainedKB is the median live heap a cluster kept per op, taken
	// from the untraced pass (a traced cluster also keeps its tracer
	// rings' contents).
	retainedKB float64
	// report holds the workload's figures under the names people know
	// them by (frames_per_s, speedup_8, read_p99_us, ...), one per line.
	report []string
}

func (p *phase) reportf(format string, args ...any) {
	p.report = append(p.report, fmt.Sprintf(format, args...))
}

// runCfg is one pass's settings.
type runCfg struct {
	seed   int64
	dur    time.Duration
	traced bool
}

type workload struct {
	name string
	run  func(runCfg) (*phase, error)
}

// workloadList holds every workload the command runs. BENCHMARK.json lists
// all but fib-spread, whose programs now and then stall with a microframe
// lost in distribution (see README.md): its failure count differs from run
// to run. It stays runnable here as a reproducer of that defect.
var workloadList = []workload{
	{"fib-local", runFibLocal},
	{"fib-spread", runFibSpread},
	{"primes-paper", runPrimesPaper},
	{"mem-mix", runMemMix},
}

// End-to-end metrics. Every workload reports every one of them; what a
// unit of work and an op are depends on the workload (see README.md).
const (
	mSetup = "setup_s"
	mWork  = "work_per_s"
	mCPU   = "cpu_us_per_work"
	mOpP50 = "op_p50_us"
	mHeap  = "peak_heap_mb"
)

var e2eUnits = []struct{ name, unit string }{
	{mSetup, "s"},
	{mWork, "1/s"},
	{mCPU, "us"},
	{mOpP50, "us"},
	{mHeap, "MB"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fib-local, fib-spread, primes-paper or mem-mix")
	seed := flag.Int64("seed", 1, "seed for the op stream, site choice and daemon seeds")
	seconds := flag.Int("seconds", 20, "measured time of the run")
	traceFlag := flag.Int("trace", 0, "1 = also run traced and print per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			w = &workloadList[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "sdvmperf: need --workload (fib-local|fib-spread|primes-paper|mem-mix), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}

	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdvmperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdvmperf: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(3)
	}
}

func run(w *workload, seed int64, dur time.Duration, traced bool) (*resultOut, error) {
	res := &resultOut{Correct: true, Metrics: map[string]metricOut{}}
	if !traced {
		p, err := w.run(runCfg{seed: seed, dur: dur})
		if err != nil {
			return nil, err
		}
		printPhase(w.name, "untraced", p)
		for _, m := range e2eUnits {
			res.Metrics[m.name] = metricOut{p.e2e[m.name], m.unit}
		}
		finish(res, p)
		return res, nil
	}

	plain, err := w.run(runCfg{seed: seed, dur: dur / 2})
	if err != nil {
		return nil, err
	}
	printPhase(w.name, "untraced half", plain)
	tr, err := w.run(runCfg{seed: seed, dur: dur / 2, traced: true})
	if err != nil {
		return nil, err
	}
	printPhase(w.name, "traced half", tr)
	for _, m := range e2eUnits {
		tr.layers["overhead."+m.name] = tr.e2e[m.name] - plain.e2e[m.name]
	}
	tr.layers["heap.retained_kb_per_op"] = plain.retainedKB
	fmt.Printf("%s per-layer metrics (traced half), each with the end-to-end metric it should move:\n", w.name)
	for _, m := range layerCatalogue() {
		res.Metrics[m.name] = metricOut{tr.layers[m.name], m.unit}
		fmt.Printf("  %-36s %14.4f %-9s -> %s\n", m.name, tr.layers[m.name], m.unit, m.moves)
	}
	finish(res, plain)
	finish(res, tr)
	// Messages the bus dropped or the network manager failed to send are
	// failures too, even when every op still completed.
	res.Failed += int(tr.layers["msgbus.dropped"] + tr.layers["netmgr.send_errors"])
	return res, nil
}

// finish folds a phase's op accounting and output checks into res.
func finish(res *resultOut, p *phase) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	res.Correct = res.Correct && len(p.wrong) == 0
	for _, w := range p.wrong {
		fmt.Fprintf(os.Stderr, "WRONG RESULT: %s\n", w)
	}
}

func printPhase(name, label string, p *phase) {
	fmt.Printf("%s (%s): %d ops attempted, %d failed, %d wrong\n", name, label, p.attempted, p.failed, len(p.wrong))
	for _, m := range e2eUnits {
		fmt.Printf("  %-16s %14.4f %s\n", m.name, p.e2e[m.name], m.unit)
	}
	for _, line := range p.report {
		fmt.Printf("  %s\n", line)
	}
}
