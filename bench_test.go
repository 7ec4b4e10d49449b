package crn

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (`go run ./cmd/repro -list` prints the experiment ids). All
// benchmarks share one trained environment, built lazily on first use at
// the Small scale; each benchmark iteration re-runs its experiment's
// predictions from scratch (the memoization cache is reset), so ns/op
// reflects honest end-to-end evaluation cost. Headline q-errors are
// attached as custom benchmark metrics.
//
// Run a single experiment with e.g.
//
//	go test -bench BenchmarkTable07 -benchtime 1x
//
// and the whole suite with `go test -bench . -benchtime 1x`.

import (
	"strconv"
	"sync"
	"testing"

	"crn/internal/experiments"
	"crn/internal/metrics"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		// BenchConfig keeps the full suite to minutes; the headline
		// reproduction numbers come from `cmd/repro -scale small`.
		benchEnv, benchErr = experiments.Build(experiments.BenchConfig(), nil)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// runExperiment executes one experiment per iteration and reports its
// headline metrics (the mean and median q-error of the last table row,
// which by construction is the paper's proposed model).
func runExperiment(b *testing.B, id string) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		r, err := experiments.Run(env, id, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	reportHeadline(b, last)
}

// reportHeadline attaches the final row's summary columns as custom metrics
// when they parse as numbers (the error tables all do).
func reportHeadline(b *testing.B, r experiments.Result) {
	if len(r.Table.Rows) == 0 {
		return
	}
	row := r.Table.Rows[len(r.Table.Rows)-1]
	if len(row) >= 8 { // model, 50th, ..., max, mean layout
		if v, err := strconv.ParseFloat(row[1], 64); err == nil {
			b.ReportMetric(v, "q50")
		}
		if v, err := strconv.ParseFloat(row[7], 64); err == nil {
			b.ReportMetric(v, "qmean")
		}
	}
}

// --- One benchmark per paper artifact --------------------------------------

func BenchmarkTable02_JoinDistributionCnt(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkFigure04_Convergence(b *testing.B)         { runExperiment(b, "fig4") }
func BenchmarkTable03_ContainmentCntTest1(b *testing.B)  { runExperiment(b, "table3") }
func BenchmarkFigure05_BoxesCntTest1(b *testing.B)       { runExperiment(b, "fig5") }
func BenchmarkTable04_ContainmentCntTest2(b *testing.B)  { runExperiment(b, "table4") }
func BenchmarkFigure06_BoxesCntTest2(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkTable05_JoinDistributionCrd(b *testing.B)  { runExperiment(b, "table5") }
func BenchmarkTable06_CardinalityCrdTest1(b *testing.B)  { runExperiment(b, "table6") }
func BenchmarkFigure09_BoxesCrdTest1(b *testing.B)       { runExperiment(b, "fig9") }
func BenchmarkTable07_CardinalityCrdTest2(b *testing.B)  { runExperiment(b, "table7") }
func BenchmarkFigure10_BoxesCrdTest2(b *testing.B)       { runExperiment(b, "fig10") }
func BenchmarkTable08_CardinalityHighJoins(b *testing.B) { runExperiment(b, "table8") }
func BenchmarkTable09_PerJoinBreakdown(b *testing.B)     { runExperiment(b, "table9") }
func BenchmarkFigure11_PerJoinMedians(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkTable10_ScaleWorkload(b *testing.B)        { runExperiment(b, "table10") }
func BenchmarkFigure12_BoxesScale(b *testing.B)          { runExperiment(b, "fig12") }
func BenchmarkFigure13_AllModels(b *testing.B)           { runExperiment(b, "fig13") }
func BenchmarkTable11_ImprovedPostgres(b *testing.B)     { runExperiment(b, "table11") }
func BenchmarkTable12_ImprovedMSCN(b *testing.B)         { runExperiment(b, "table12") }
func BenchmarkTable13_ImprovedVsCRN(b *testing.B)        { runExperiment(b, "table13") }
func BenchmarkTable14_PoolSizeSweep(b *testing.B)        { runExperiment(b, "table14") }
func BenchmarkTable15_PredictionTime(b *testing.B)       { runExperiment(b, "table15") }

// Ablation benches: the estimator's own design choices.

func BenchmarkTopKCandidateSweep(b *testing.B)    { runExperiment(b, "topk") }
func BenchmarkAblationFinalFunction(b *testing.B) { runExperiment(b, "ablation_final") }
func BenchmarkAblationEpsilonGuard(b *testing.B)  { runExperiment(b, "ablation_eps") }
func BenchmarkAblationPoolAnchors(b *testing.B)   { runExperiment(b, "ablation_anchor") }
func BenchmarkAblationWorkers(b *testing.B)       { runExperiment(b, "ablation_workers") }
func BenchmarkAblationOracleRates(b *testing.B)   { runExperiment(b, "ablation_oracle") }
func BenchmarkPlanQuality(b *testing.B)           { runExperiment(b, "planquality") }
func BenchmarkSamplingBaselines(b *testing.B)     { runExperiment(b, "baselines") }

// BenchmarkFigure03_HiddenSizeSweep retrains the CRN at a few hidden sizes
// per iteration (the §3.4 hyperparameter search); it is the most expensive
// benchmark in the suite.
func BenchmarkFigure03_HiddenSizeSweep(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(env, []int{16, 32}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRN_TrainingCosts reproduces §3.5's cost accounting: epoch time,
// prediction latency, parameter count, serialized size.
func BenchmarkCRN_TrainingCosts(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Costs(env)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	_ = last
}

// BenchmarkContainmentPrediction measures the paper's §3.5.2 single-pair
// prediction latency.
func BenchmarkContainmentPrediction(b *testing.B) {
	env := benchEnvironment(b)
	pairs := env.ValPairs
	if len(pairs) == 0 {
		b.Skip("no validation pairs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp := pairs[i%len(pairs)]
		if _, err := env.CRNRates.EstimateRate(lp.Q1, lp.Q2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCnt2CrdPrediction measures end-to-end pool-based cardinality
// estimation latency for a single query (§7.4).
func BenchmarkCnt2CrdPrediction(b *testing.B) {
	env := benchEnvironment(b)
	est := env.Cnt2CrdCRN()
	queries := env.CrdTest2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lq := queries[i%len(queries)]
		if _, err := est.EstimateCard(lq.Q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrueCardinality measures the exact executor, the ground-truth
// substrate every label depends on.
func BenchmarkTrueCardinality(b *testing.B) {
	env := benchEnvironment(b)
	queries := env.CrdTest2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lq := queries[i%len(queries)]
		if _, err := env.Exec.Cardinality(lq.Q); err != nil {
			b.Fatal(err)
		}
	}
}

// Sanity guard: percentile plumbing used by every benchmark table.
func BenchmarkSummarize(b *testing.B) {
	errs := make([]float64, 1200)
	for i := range errs {
		errs[i] = 1 + float64(i%97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.Summarize(errs)
	}
}
