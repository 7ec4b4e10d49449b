package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricOrder and layerUnits fix the reported metrics; they match
// BENCHMARK.json's end_to_end and per_layer lists.
var metricOrder = []string{
	"setup_s", "read_ops_per_s", "read_p50_us", "read_p95_us",
	"feedback_p50_us", "retrain_s", "recover_s",
	"qerror_p50", "qerror_p99", "drift_qerror_p50", "drift_qerror_p99", "rss_mb",
}

var layerUnits = map[string]string{
	"client.encode_us":              "us",
	"client.decode_us":              "us",
	"client.read_p99_us":            "us",
	"crnserve.http_overhead_us":     "us",
	"crnserve.cpu_us_per_op":        "us",
	"sqlparse.parse_us":             "us",
	"guard.admission_us":            "us",
	"serve.coalesce_wait_us":        "us",
	"serve.batch_size_mean":         "queries",
	"serve.solo_share":              "ratio",
	"crn.cache_lookup_us":           "us",
	"crn.repcache_hit_share":        "ratio",
	"crn.nn_forward_us":             "us",
	"crn.nn_forward_p99_us":         "us",
	"pool.selection_us":             "us",
	"pool.entries":                  "count",
	"card.finalize_us":              "us",
	"card.fallback_share":           "ratio",
	"wire.encode_us":                "us",
	"wire.decode_us":                "us",
	"wire.bytes_per_query":          "B",
	"wire.buffer_reuse_share":       "ratio",
	"online.accept_share":           "ratio",
	"online.feedback_p99_us":        "us",
	"online.drained_per_cycle":      "count",
	"online.oracle_pairs_per_cycle": "count",
	"online.promotions":             "count",
	"online.rejections":             "count",
	"durable.wal_records":           "count",
	"durable.wal_fsync_us":          "us",
	"durable.checkpoint_ms":         "ms",
	"durable.replayed_records":      "count",
	"telemetry.scrape_ms":           "ms",
	"telemetry.trace_overhead":      "us",
	"pg.qerror_p50":                 "ratio",
	"pg.qerror_p99":                 "ratio",
	"workload.first_sighting_share": "ratio",
	"workload.batch_dedup_share":    "ratio",
}

type metric struct {
	value   float64
	unit    string
	samples int
}

// result is one workload run: its metrics, operation counts and checks.
type result struct {
	cfg      config
	workload *workloadSpec
	env      env

	metrics           map[string]metric
	layer             map[string]float64
	attempted, failed int64
	failures          []string // output checks that did not hold
	correct           bool

	probeQ, pgQ, driftBefore []float64
	adaptRead                *loopResult
	windows                  []*loopResult
	recovers                 []time.Duration
	props                    []string // measured workload properties, for the report
	timeline                 []string // wall time per phase, for the report
}

func newResult(cfg config, w *workloadSpec) *result {
	return &result{cfg: cfg, workload: w, metrics: map[string]metric{}, layer: map[string]float64{}, correct: true}
}

func (r *result) e2e(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{v, unit, samples}
}

// phase records the wall time of a phase that began at start and returns
// its end.
func (r *result) phase(name string, start time.Time) time.Time {
	now := time.Now()
	r.timeline = append(r.timeline, fmt.Sprintf("%s=%.1fs", name, now.Sub(start).Seconds()))
	return now
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// count adds a closed-loop phase's operations. An answer that fails the
// output checks is a failed operation and makes the run incorrect.
func (r *result) count(l *loopResult) {
	r.attempted += l.attempted
	r.failed += l.failed + l.invalid
	if l.invalid > 0 {
		r.fail("%d read answers were not one finite, non-negative value per query", l.invalid)
	}
}

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// readProperties records what makes the timed read phase the workload it
// claims to be.
func (r *result) readProperties(l *loopResult, d delta) {
	hit := d.counter("crn_repcache_lookups_total", "result", "hit")
	miss := d.counter("crn_repcache_lookups_total", "result", "miss")
	r.layer["workload.first_sighting_share"] = share(float64(l.fresh), float64(l.attempted))
	r.layer["workload.batch_dedup_share"] = l.dedup()
	r.props = append(r.props,
		fmt.Sprintf("first_sighting_share=%.3f", r.layer["workload.first_sighting_share"]),
		fmt.Sprintf("repcache_hit_share=%.4f", share(hit, hit+miss)),
		fmt.Sprintf("batch_dedup_share=%.3f", l.dedup()))
}

// readLayers computes the per-layer metrics of a traced read phase from
// the client spans and crnserve's counter deltas.
func (r *result) readLayers(w *workloadSpec, l *loopResult, d delta) {
	var sum [nSpanNames]int64
	var n [nSpanNames]int64
	for _, s := range l.spans {
		sum[s.name] += s.end - s.start
		n[s.name]++
	}
	spanMean := func(k int) float64 { return share(float64(sum[k]), float64(n[k])) / 1e3 }
	r.layer["client.encode_us"] = spanMean(spanEncode)
	r.layer["client.decode_us"] = spanMean(spanDecode)
	e2eHist := "crn_estimate_duration_seconds"
	if w.name == "batch" {
		e2eHist = "crn_estimate_batch_duration_seconds"
	}
	r.layer["crnserve.http_overhead_us"] = us(meanDur(l.lat)) - histMean(d.hist(e2eHist, "", ""))*1e6
	r.layer["crnserve.cpu_us_per_op"] = share(us(d.b.cpu-d.a.cpu), float64(l.ops))
	stage := func(s string) float64 {
		return histMean(d.hist("crn_estimate_stage_duration_seconds", "stage", s)) * 1e6
	}
	r.layer["guard.admission_us"] = stage("admission")
	r.layer["serve.coalesce_wait_us"] = stage("coalesce_wait")
	r.layer["crn.cache_lookup_us"] = stage("cache_lookup")
	r.layer["crn.nn_forward_us"] = stage("nn_forward")
	r.layer["crn.nn_forward_p99_us"] = d.hist("crn_estimate_stage_duration_seconds", "stage", "nn_forward").Quantile(0.99) * 1e6
	r.layer["pool.selection_us"] = stage("candidate_selection")
	r.layer["card.finalize_us"] = stage("finalize")
	r.layer["serve.batch_size_mean"] = histMean(d.hist("crn_coalesce_batch_size", "", ""))
	r.layer["serve.solo_share"] = share(d.counter("crn_coalesce_calls_total", "kind", "solo"), d.counter("crn_coalesce_calls_total", "kind", "call"))
	hit := d.counter("crn_repcache_lookups_total", "result", "hit")
	r.layer["crn.repcache_hit_share"] = share(hit, hit+d.counter("crn_repcache_lookups_total", "result", "miss"))
	fb := d.counter("crn_estimate_requests_total", "outcome", "fallback")
	r.layer["card.fallback_share"] = share(fb, fb+d.counter("crn_estimate_requests_total", "outcome", "ok"))
	bytes := 0.0
	for _, codec := range []string{"json", "binary"} {
		bytes += d.counter("crn_wire_in_bytes_total", "codec", codec) + d.counter("crn_wire_out_bytes_total", "codec", codec)
	}
	if w.name == "batch" {
		r.layer["wire.bytes_per_query"] = share(bytes, float64(l.ops))
	}
	gets := d.counter("crn_wire_buffer_ops_total", "op", "get")
	r.layer["wire.buffer_reuse_share"] = share(gets-d.counter("crn_wire_buffer_ops_total", "op", "miss"), gets)
}

// adaptLayers computes the per-layer metrics of the adaptation phase.
func (r *result) adaptLayers(fb *feedbackResult, d delta) {
	cycles := float64(len(fb.retrain))
	h0, h1 := d.a.health.Online, d.b.health.Online
	r.layer["online.accept_share"] = share(float64(fb.accepted), float64(fb.posted))
	r.layer["online.drained_per_cycle"] = share(float64(h1.Collector.Drained-h0.Collector.Drained), cycles)
	r.layer["online.oracle_pairs_per_cycle"] = share(float64(h1.Trainer.OraclePairs-h0.Trainer.OraclePairs), cycles)
	r.layer["online.promotions"] = float64(fb.promoted)
	r.layer["online.rejections"] = float64(fb.rejected)
	r.layer["pool.entries"] = float64(d.b.health.PoolSize)
	r.layer["durable.wal_records"] = d.counter("crn_wal_records_total", "kind", "append")
	r.layer["durable.wal_fsync_us"] = histMean(d.hist("crn_wal_fsync_duration_seconds", "", "")) * 1e6
	r.layer["durable.checkpoint_ms"] = histMean(d.hist("crn_checkpoint_duration_seconds", "", "")) * 1e3
	r.props = append(r.props,
		fmt.Sprintf("feedback_accepted=%d/%d", fb.accepted, fb.posted),
		fmt.Sprintf("feedback_p50_us_by_round=%v", roundMicros(fb.roundP50)),
		fmt.Sprintf("retrain_s_by_cycle=%v", roundSeconds(fb.retrain)),
		fmt.Sprintf("cycles_promoted=%d rejected=%d errored=%d", fb.promoted, fb.rejected, fb.errored))
}

func roundMicros(ds []time.Duration) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = int(us(d))
	}
	return out
}

func roundSeconds(ds []time.Duration) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%.3f", d.Seconds())
	}
	return out
}

// print writes the human-readable report and, as the last line, the JSON
// result: end-to-end metrics for an untraced run, per-layer metrics for a
// traced one.
func (r *result) print(out io.Writer) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d seconds=%d trace=%t first_sighting_share=%g\n",
		r.workload.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace, r.cfg.share)
	fmt.Fprintf(w, "env: nproc=%d go=%s cpu=%q kernels=%s sleep(200us)_overshoot_p50_us=%.1f p99_us=%.1f\n",
		r.env.nproc, r.env.goVersion, r.env.cpu, r.env.isa, r.env.sleepOverP50us, r.env.sleepOverP99us)
	fmt.Fprintf(w, "why: %s\n", r.workload.why)
	var wins []string
	for _, l := range r.windows {
		wins = append(wins, fmt.Sprintf("%.0f/%.0fus", l.opsPerSec(), us(percentile(l.lat, 0.5))))
	}
	fmt.Fprintf(w, "read windows (ops/s / p50): %s; hypervisor steal during reads %.1f%%\n", strings.Join(wins, " "), 100*r.env.readSteal)
	fmt.Fprintf(w, "properties: %s\n", strings.Join(r.props, " "))
	fmt.Fprintf(w, "phases: %s\n", strings.Join(r.timeline, " "))
	if r.adaptRead != nil {
		fmt.Fprintf(w, "adaptation-phase reads: %.0f %s/s over %d requests, p50 %.0fus\n",
			r.adaptRead.opsPerSec(), r.workload.opUnit, r.adaptRead.attempted, us(percentile(r.adaptRead.lat, 0.5)))
	}
	fmt.Fprintf(w, "reference (ungated): PostgreSQL-style baseline qerror p50=%.3f p99=%.3f on the workload probes; "+
		"drift probes before adaptation: served qerror p50=%.3f p99=%.3f\n",
		percentileF(r.pgQ, 0.5), percentileF(r.pgQ, 0.99), percentileF(r.driftBefore, 0.5), percentileF(r.driftBefore, 0.99))
	fmt.Fprintf(w, "%-20s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, name := range metricOrder {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-20s %14.4f %-6s %8d\n", name, m.value, m.unit, m.samples)
	}
	if r.cfg.trace {
		names := make([]string, 0, len(layerUnits))
		for k := range layerUnits {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "%-32s %14.4f %s\n", k, r.layer[k], layerUnits[k])
		}
	}
	fmt.Fprintf(w, "recover_s by restart: %v\n", roundSeconds(r.recovers))
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jm{}
	if r.cfg.trace {
		for k, u := range layerUnits {
			ms[k] = jm{r.layer[k], u}
		}
	} else {
		for _, k := range metricOrder {
			ms[k] = jm{r.metrics[k].value, r.metrics[k].unit}
		}
	}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(w, "CHECK FAILED: %s is not a finite number\n", k)
			r.correct = false
			ms[k] = jm{0, m.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}
