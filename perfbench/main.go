// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator or the sweep service, checks its output, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones plus the tracing overhead. See README.md beside
// this file for the workloads, the metrics and how to compare runs.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh -workload paper-tables -seed 1 -seconds 20 -trace 0
//	bash perfbench/run.sh -compare base.txt head.txt
//	bash perfbench/run.sh -pins > perfbench/pins.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// config selects one run. It travels to set-up probes as JSON.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Work is a scratch directory inside the checkout for stores and
	// journals; it is removed when the run ends.
	Work string
	// Tiny shrinks paper-tables, sweep-service and screen-grid to a few
	// cells, for the benchmark's own tests; tiny screening has no pinned
	// digest to check against.
	Tiny bool
}

func main() {
	if spec := os.Getenv(probeEnv); spec != "" {
		if err := setupProbe(spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up probe:", err)
			os.Exit(1)
		}
		return
	}
	var (
		cfg     config
		trace   int
		compare bool
		pins    bool
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload: "+strings.Join(allWorkloads, ", "))
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: chooses input orders and rank windows")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "how long to run passes")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	flag.BoolVar(&compare, "compare", false, "compare two files of saved run output: -compare BASE HEAD")
	flag.BoolVar(&pins, "pins", false, "print the reference hashes the checks pin, as pins.json")
	flag.Parse()

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case pins:
		err = printPins(os.Stdout)
	default:
		err = benchmark(cfg, trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(cfg config, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	cfg.Trace = trace == 1
	if cfg.Seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	known := false
	for _, w := range allWorkloads {
		known = known || w == cfg.Workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want %s)", cfg.Workload, strings.Join(allWorkloads, ", "))
	}
	limitProcs()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.Work = work

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
	res, err := run(cfg, logf)
	if err != nil {
		return err
	}
	rec := record{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Host: fingerprint(), Commit: commit(), Result: res}
	return printResult(os.Stdout, rec)
}

// limitProcs keeps the Go scheduler within the CPUs this process may
// use: GOMAXPROCS defaults to them, but an environment override must not
// oversubscribe the host.
func limitProcs() {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
}

// errLog receives diagnostics: failed checks and cell errors.
var errLog io.Writer = os.Stderr

// slots is the number of cells the benchmark simulates at once.
func slots() int { return runtime.GOMAXPROCS(0) }

// host identifies the machine a result was measured on. Results from
// different hosts are not comparable, and -compare refuses to.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func fingerprint() host {
	return host{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the revision the benchmark was built from, as run.sh
// recorded it; "unknown" outside a git checkout.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// record is one run as saved for -compare: the result plus everything
// needed to tell whether two results may be compared.
type record struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    bool      `json:"trace"`
	Host     host      `json:"host"`
	Commit   string    `json:"commit"`
	Result   runResult `json:"result"`
}

const recordPrefix = "# record "

// printResult writes the human-readable metric lines, the record line
// -compare reads, and last the result object.
func printResult(f io.Writer, rec record) error {
	h := rec.Host
	fmt.Fprintf(f, "# %s seed=%d trace=%v commit=%s cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Commit, h.CPU, h.NProc, h.GOMAXPROCS, h.Go)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := rec.Result.Metrics[d.Name]
		note := ""
		if !d.appliesTo(rec.Workload) {
			note = "  (not measured on this workload)"
		}
		fmt.Fprintf(f, "# %-28s %16.6g %s%s\n", d.Name, v.Value, v.Unit, note)
	}
	r := rec.Result
	fmt.Fprintf(f, "# attempted=%d failed=%d error_rate=%g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s%s\n", recordPrefix, line)
	line, err = json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}
