package multicore_test

import (
	"context"
	"math/rand"
	"testing"

	"multicore/internal/experiments"
	"multicore/internal/kernels/blas"
	"multicore/internal/kernels/cg"
	"multicore/internal/kernels/fft"
	"multicore/internal/kernels/hpl"
	"multicore/internal/kernels/rnda"
)

// benchExperiment runs paper artifacts at Quick scale, in order, on a
// fresh Runner per iteration: a runner caches every cell it simulates, so
// a shared one would turn every iteration after the first into cache
// hits. Every table and figure in the paper's evaluation has a benchmark
// here; run a single one with e.g. `go test -bench=BenchmarkFig10
// -benchtime=1x`.
func benchExperiment(b *testing.B, ids ...string) {
	var exps []experiments.Experiment
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			b.Fatalf("no experiment %q", id)
		}
		exps = append(exps, e)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(context.Background(), experiments.Options{})
		for _, e := range exps {
			tables, err := r.Run(e, experiments.Quick)
			if err != nil {
				b.Fatal(err)
			}
			if len(tables) == 0 {
				b.Fatal("no tables")
			}
		}
	}
}

// BenchmarkPaperTables is the go test twin of perfbench's paper-tables
// workload: table2 then table14 on one fresh runner.
func BenchmarkPaperTables(b *testing.B) { benchExperiment(b, "table2", "table14") }

func BenchmarkFig2(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)   { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)   { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)   { benchExperiment(b, "fig17") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11") }
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12") }
func BenchmarkTable13(b *testing.B) { benchExperiment(b, "table13") }
func BenchmarkTable14(b *testing.B) { benchExperiment(b, "table14") }

// Ablations and extensions.
func BenchmarkAblateCoherence(b *testing.B)   { benchExperiment(b, "ablate-coherence") }
func BenchmarkAblateTopology(b *testing.B)    { benchExperiment(b, "ablate-topology") }
func BenchmarkAblateSublayer(b *testing.B)    { benchExperiment(b, "ablate-sublayer") }
func BenchmarkExtHybrid(b *testing.B)         { benchExperiment(b, "ext-hybrid") }
func BenchmarkExtLatency(b *testing.B)        { benchExperiment(b, "ext-latency") }
func BenchmarkExtOpenMP(b *testing.B)         { benchExperiment(b, "ext-openmp") }
func BenchmarkAblateCollectives(b *testing.B) { benchExperiment(b, "ablate-collectives") }
func BenchmarkAblateMigration(b *testing.B)   { benchExperiment(b, "ablate-migration") }
func BenchmarkExtNPB(b *testing.B)            { benchExperiment(b, "ext-npb") }
func BenchmarkExtCluster(b *testing.B)        { benchExperiment(b, "ext-cluster") }

// Real-numeric kernel benchmarks: these measure the host running the
// actual math (the correctness-side implementations), not the simulator.

func BenchmarkRealDGEMMBlocked(b *testing.B) {
	const n = 128
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i], bb[i] = rng.Float64(), rng.Float64()
	}
	b.SetBytes(3 * 8 * n * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.DgemmBlocked(1, a, bb, 0, c, n, 32)
	}
}

func BenchmarkRealFFT(b *testing.B) {
	const n = 1 << 12
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.SetBytes(16 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.Forward(x)
	}
}

func BenchmarkRealCGSolve(b *testing.B) {
	m := cg.RandomSPD(500, 8, 42)
	rhs := make([]float64, m.N)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg.Solve(m, rhs, 1e-8, 1000)
	}
}

func BenchmarkRealLUSolve(b *testing.B) {
	const n = 100
	rng := rand.New(rand.NewSource(3))
	a0 := make([]float64, n*n)
	for i := range a0 {
		a0[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a0[i*n+i] += float64(n)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := append([]float64(nil), a0...)
		bb := append([]float64(nil), rhs...)
		if _, err := hpl.Solve(a, bb, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealGUPS(b *testing.B) {
	t := rnda.NewTable(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Update(1, 1<<16)
	}
}
