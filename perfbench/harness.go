package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"multicore/internal/sim"
)

// workload is one set of inputs the benchmark runs. Constructing it is
// the workload's set-up; pass runs it once.
type workload interface {
	// prepare computes, once and outside every timing, the reference
	// outputs the passes are checked against.
	prepare() error
	// pass runs the workload once, checks its output, and records in out
	// the host time of the timed part plus the operations attempted and
	// failed. traced turns on the per-layer instrumentation.
	pass(traced bool, out *passOut) error
	// layers adds the per-layer metrics the workload measures beyond the
	// harness's counters, after the last pass of a traced run.
	layers(traced []*passOut, m map[string]float64) error
	close()
}

// passOut is everything measured about one pass.
type passOut struct {
	traced            bool
	wall              time.Duration
	attempted, failed int
	// values holds per-pass metrics a workload measures itself, keyed by
	// metric name; the run reports their median over passes.
	values map[string]float64

	peakHeap                       float64
	events, flows, settles, spawns uint64
	rt                             runtimeDelta
	cpu                            map[string]int64 // profile CPU ns by leaf package (traced only)
}

// runtimeDelta is the change of the Go runtime's counters over a pass.
type runtimeDelta struct {
	mallocs, allocBytes, gcCycles float64
	gcCPU, usedCPU                float64 // seconds
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func runtimeSince(before []float64) runtimeDelta {
	after := readRuntime()
	d := make([]float64, len(after))
	for i := range after {
		d[i] = after[i] - before[i]
	}
	return runtimeDelta{
		mallocs:    d[0] + d[1],
		allocBytes: d[2],
		gcCycles:   d[3],
		gcCPU:      d[4],
		usedCPU:    d[5] - d[6],
	}
}

// heapSampler polls the live heap until stopped and keeps its maximum.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		read := func() {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > peak {
				peak = v
			}
		}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) peak() float64 {
	close(h.stop)
	return <-h.done
}

func newWorkload(cfg config) (workload, error) {
	var (
		w   workload
		err error
	)
	switch cfg.Workload {
	case wPaper:
		w, err = paperTables(cfg)
	case wScale:
		w, err = scale10k(cfg)
	case wSweep:
		w, err = newSweepService(cfg)
	case wScreen:
		w, err = newScreenGrid(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// runPass runs one pass of w with the harness's counters around it.
func runPass(w workload, traced bool) (*passOut, error) {
	runtime.GC() // every pass starts from the same live heap
	out := &passOut{traced: traced, values: map[string]float64{}}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %v", err)
		}
	}
	rt0 := readRuntime()
	e0, f0, s0, sp0 := sim.Activity()
	heap := startHeapSampler()
	err := w.pass(traced, out)
	out.peakHeap = heap.peak()
	e1, f1, s1, sp1 := sim.Activity()
	out.rt = runtimeSince(rt0)
	out.events, out.flows, out.settles, out.spawns = e1-e0, f1-f0, s1-s0, sp1-sp0
	if traced {
		pprof.StopCPUProfile()
		cpu, perr := cpuByPackage(prof.Bytes())
		if perr != nil && err == nil {
			err = perr
		}
		out.cpu = cpu
	}
	return out, err
}

// runResult is what one benchmark run reports.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run measures one workload: set-up time in child processes, then
// passes until cfg.Seconds would be exceeded. A traced run alternates
// untraced and traced passes, so the tracing overhead is measured on one
// host in one process.
func run(cfg config, logf func(string, ...any)) (runResult, error) {
	var setup []float64
	if !cfg.Trace {
		var err error
		if setup, err = measureSetup(cfg); err != nil {
			return runResult{}, err
		}
		logf("set-up: median %.4fs, min %.4fs, max %.4fs over %d starts",
			median(setup), percentile(setup, 0), percentile(setup, 100), len(setup))
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return runResult{}, err
	}
	defer w.close()
	if err := w.prepare(); err != nil {
		return runResult{}, err
	}

	var passes []*passOut
	start := time.Now()
	for i := 0; ; i++ {
		traced := cfg.Trace && i%2 == 1
		t0 := time.Now()
		p, err := runPass(w, traced)
		if err != nil {
			return runResult{}, fmt.Errorf("%s pass %d: %w", cfg.Workload, i, err)
		}
		logf("pass %d traced=%v wall=%.4fs attempted=%d failed=%d", i, traced, p.wall.Seconds(), p.attempted, p.failed)
		passes = append(passes, p)
		// Stop before a pass that would overrun the run's time.
		if enoughPasses(passes, cfg.Trace) && time.Since(start)+time.Since(t0) > seconds(cfg.Seconds) {
			break
		}
	}

	var untraced, traced []*passOut
	res := runResult{}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	// The engine's work counts are exact: every pass, traced or not, must
	// repeat them, or tracing perturbed what it measures.
	for _, p := range passes[1:] {
		res.Attempted++
		if p.events != passes[0].events || p.flows != passes[0].flows ||
			p.settles != passes[0].settles || p.spawns != passes[0].spawns {
			logf("engine counts differ between passes: %+v vs %+v",
				[]uint64{p.events, p.flows, p.settles, p.spawns},
				[]uint64{passes[0].events, passes[0].flows, passes[0].settles, passes[0].spawns})
			res.Failed++
		}
	}

	m := map[string]float64{}
	if !cfg.Trace {
		m["setup_s"] = median(setup)
		m["wall_s"] = medianOf(untraced, func(p *passOut) float64 { return p.wall.Seconds() })
		m["peak_heap_bytes"] = medianOf(untraced, func(p *passOut) float64 { return p.peakHeap })
		for _, name := range []string{"cold_cells_per_s", "warm_cells_per_s", "screen_cells_per_s", "fidelity_spearman"} {
			if _, ok := untraced[0].values[name]; ok {
				m[name] = medianOf(untraced, func(p *passOut) float64 { return p.values[name] })
			}
		}
		res.Metrics, err = collect(endToEnd, cfg.Workload, m, notApplicable)
	} else {
		if err := layerMetrics(w, traced, untraced, m); err != nil {
			return runResult{}, err
		}
		res.Metrics, err = collect(perLayer, cfg.Workload, m, 0)
	}
	if err != nil {
		return runResult{}, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func enoughPasses(passes []*passOut, trace bool) bool {
	var u, t int
	for _, p := range passes {
		if p.traced {
			t++
		} else {
			u++
		}
	}
	return u >= 1 && (!trace || t >= 1)
}

func medianOf(passes []*passOut, f func(*passOut) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// layerMetrics fills the harness-measured per-layer metrics of a traced
// run: engine counts, CPU shares by package, Go runtime deltas and the
// tracing overhead, then the workload's own.
func layerMetrics(w workload, traced, untraced []*passOut, m map[string]float64) error {
	p := traced[0]
	m["sim.events"] = float64(p.events)
	m["sim.flows"] = float64(p.flows)
	m["sim.settles"] = float64(p.settles)
	m["sim.spawns"] = float64(p.spawns)
	wall := medianOf(untraced, func(p *passOut) float64 { return p.wall.Seconds() })
	m["trace.overhead_s"] = medianOf(traced, func(p *passOut) float64 { return p.wall.Seconds() }) - wall
	if p.events > 0 {
		m["sim.ns_per_event"] = wall * 1e9 / float64(p.events)
	}

	cpu := map[string]int64{}
	var total int64
	for _, t := range traced {
		for pkg, ns := range t.cpu {
			cpu[pkg] += ns
			total += ns
		}
	}
	share := func(pkgs ...string) float64 {
		if total == 0 {
			return 0
		}
		var ns int64
		for _, pkg := range pkgs {
			ns += cpu["multicore/internal/"+pkg]
		}
		return float64(ns) / float64(total)
	}
	m["sim.cpu_share"] = share("sim")
	m["mpi.cpu_share"] = share("mpi")
	m["mem.cpu_share"] = share("mem", "machine", "topology", "affinity")

	m["go.mallocs"] = medianOf(traced, func(p *passOut) float64 { return p.rt.mallocs })
	m["go.alloc_bytes"] = medianOf(traced, func(p *passOut) float64 { return p.rt.allocBytes })
	m["go.gc_cycles"] = medianOf(traced, func(p *passOut) float64 { return p.rt.gcCycles })
	m["go.gc_cpu_share"] = medianOf(traced, func(p *passOut) float64 {
		if p.rt.usedCPU <= 0 {
			return 0
		}
		return p.rt.gcCPU / p.rt.usedCPU
	})
	if p.events > 0 {
		m["go.mallocs_per_event"] = m["go.mallocs"] / float64(p.events)
	}
	for name := range p.values {
		name := name
		m[name] = medianOf(traced, func(p *passOut) float64 { return p.values[name] })
	}
	return w.layers(traced, m)
}

// Set-up is timed from outside, from process start to the moment the
// workload is ready for its first timed call, so that it includes the
// runtime's start, package initialization (registries, machine specs)
// and the workload's own construction. The benchmark starts itself in
// probe mode setupProbes times and reports the median.
const (
	setupProbes = 15
	probeEnv    = "PERFBENCH_SETUP_PROBE"
	probeReady  = "ready"
)

func measureSetup(cfg config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(exe, string(spec))
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func probeOnce(exe, spec string) (time.Duration, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), probeEnv+"="+spec)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0)
	werr := cmd.Wait()
	switch {
	case rerr != nil:
		return 0, fmt.Errorf("reading probe: %v (exit: %v)", rerr, werr)
	case werr != nil:
		return 0, werr
	case strings.TrimSpace(line) != probeReady:
		return 0, fmt.Errorf("probe printed %q", line)
	}
	return d, nil
}

// setupProbe is the child side: set the workload up, report readiness,
// tear down.
func setupProbe(spec string) error {
	var cfg config
	if err := json.Unmarshal([]byte(spec), &cfg); err != nil {
		return err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Println(probeReady)
	w.close()
	return nil
}
