// Command e2ebench is the repository's end-to-end benchmark. It launches the
// crnserve binary built from this checkout as a child process and drives it
// over loopback HTTP with closed-loop clients: single estimates or batched
// planning sessions, then feedback that triggers retraining, then kill -9
// and recovery. See README.md in this directory for the workloads, the
// metrics and how to run it.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	e2ebench --workload estimate --seed 1 --seconds 10 --trace 0 \
//	    --crnserve BIN --crndiag BIN --work DIR
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crn"
	"crn/internal/metrics"
	"crn/internal/wire"
	"crn/internal/workload"
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name      string
	why       string
	probeDist func(int) map[int]int
	opUnit    string // what one read operation is
	// maxRate is the read requests per second the traffic is sized for,
	// about three times what the seed commit reaches on a 2-core VM. A run
	// that sends more fails instead of changing the mix.
	maxRate int
	// adaptUnderReads keeps one client reading while the other posts
	// feedback. The batch workload adapts with no reads in flight: a
	// /feedback landing beside a 64-query batch waits for it or not, which
	// on a 2-core VM swung the feedback median by ±25% between runs.
	adaptUnderReads bool
}

var workloads = []*workloadSpec{
	{
		name: "estimate",
		why: "single-query /estimate, crd_test1 mix, 10% first sightings: loads HTTP/JSON, guard, coalescer, " +
			"rep-cache hits and encode misses, the pair head and the Cnt2Crd final function; wire idle",
		probeDist:       workload.CrdTest1Dist,
		opUnit:          "requests",
		maxRate:         24000,
		adaptUnderReads: true,
	},
	{
		name: "batch",
		why: "64-query planning sessions (crd_test2 base, 0-5 joins) on /estimate/batch, binary and JSON " +
			"alternating: loads the wire codecs and the batched forward pass with in-batch dedup; skips the coalescer",
		probeDist: workload.CrdTest2Dist,
		opUnit:    "queries",
		maxRate:   1000, // sessions
	},
}

// Fixed run shape. crnserve keeps its default flags except the three the
// adaptation phase needs: a data dir (durability on, WAL interval sync by
// default), a retrain batch equal to the round size, and a short trainer
// poll so a cycle starts right after the round's last record.
const (
	dbTitles      = 4000 // crnserve's -titles default
	dbSeed        = 1    // crnserve's -db-seed default
	setupLaunches = 3
	restarts      = 7
	warmDur       = 6 * time.Second
	retrainPoll   = "5ms"
	runLimit      = 170 * time.Second
	readWindows   = 5
	// adaptReadBudget is how long the adaptation phase's single reader is
	// sized for at half the workload's maxRate.
	adaptReadBudget = 30
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	share    float64 // first-sighting share of the read traffic
	crnserve string
	crndiag  string
	work     string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: estimate, batch, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed read phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Float64Var(&cfg.share, "first-sighting-share", defaultFirstSightingShare, "share of read requests that are first sightings")
	flag.StringVar(&cfg.crnserve, "crnserve", "", "crnserve binary")
	flag.StringVar(&cfg.crndiag, "crndiag", "", "crndiag binary (reports the dispatched kernel ISA)")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for data dirs, logs and traces")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.crnserve == "" || cfg.work == "" || cfg.seconds < 1 || cfg.share < 0 || cfg.share > 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --crnserve, --work, a positive --seconds and a --first-sighting-share in [0,1] are required")
		os.Exit(2)
	}
	specs := workloads
	if cfg.workload != "all" {
		specs = nil
		for _, w := range workloads {
			if w.name == cfg.workload {
				specs = []*workloadSpec{w}
			}
		}
		if specs == nil {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", cfg.workload)
			os.Exit(2)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok := true
	for _, w := range specs {
		r, err := run(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			stop()
			os.Exit(1)
		}
		if err := r.print(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			stop()
			os.Exit(1)
		}
		ok = ok && r.correct
	}
	if !ok {
		stop()
		os.Exit(1)
	}
}

func serveArgs(dataDir string) []string {
	return []string{
		"-data-dir", dataDir,
		"-feedback-min-batch", strconv.Itoa(roundSize),
		"-retrain-interval", retrainPoll,
	}
}

// run executes one workload end to end and returns its result.
func run(parent context.Context, cfg config, w *workloadSpec) (*result, error) {
	ctx, cancel := context.WithTimeout(parent, runLimit)
	defer cancel()
	work := filepath.Join(cfg.work, w.name)
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	res := newResult(cfg, w)
	res.env = probeEnv(cfg.crndiag)
	mark := time.Now()

	// Inputs come from an in-process copy of the database crnserve opens
	// (same -titles and -db-seed defaults); true cardinalities come from its
	// exact executor.
	sys, err := crn.OpenSynthetic(ctx, crn.WithTitles(dbTitles), crn.WithDataSeed(dbSeed))
	if err != nil {
		return nil, err
	}
	readPhases := 1
	if cfg.trace {
		readPhases = 2
	}
	maxReads := cfg.seconds * readPhases * w.maxRate
	if w.adaptUnderReads {
		maxReads += adaptReadBudget * w.maxRate / 2
	}
	in, err := buildInputs(sys, w, cfg.seed, cfg.share, int(warmDur.Seconds())*w.maxRate, maxReads)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	mark = res.phase("inputs", mark)
	if cfg.trace {
		res.layer["sqlparse.parse_us"] = parseMicros(sys, in.read)
		res.layer["wire.encode_us"], res.layer["wire.decode_us"] = wireMicros(in.read)
	}
	// From here on the client needs one processor: it mostly waits on
	// sockets, and a second P only adds thread hand-offs that take CPU from
	// crnserve. On a 2-core VM a one-P client drove /estimate at 8-11k
	// req/s where a two-P client reached 6.5-8.7k.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Set-up, several times: each launch starts from an empty data dir and
	// pays database generation, startup training and pool seeding.
	dataDir := filepath.Join(work, "data")
	var live *server
	defer func() { live.kill() }()
	var setups []time.Duration
	for i := 0; i < setupLaunches; i++ {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		s, d, err := launch(ctx, cfg.crnserve, serveArgs(dataDir), filepath.Join(work, fmt.Sprintf("setup%d.log", i)))
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, d)
		if i < setupLaunches-1 {
			s.kill()
		} else {
			live = s
		}
	}
	res.e2e("setup_s", percentile(setups, 0.5).Seconds(), "s", len(setups))
	mark = res.phase("setup", mark)

	clients := min(2, runtime.NumCPU())
	c := newClient(clients + 1)
	poll := newClient(1)
	rd := &reader{c: c, base: live.base, batch: w.name == "batch", traffic: in.read}

	// Warm-up: the working set once, then the timed mix with its own first
	// sightings, so caches fill and the connection pool is open before
	// anything is timed. It lasts 6s because crnserve starts slow under
	// load: on a 2-core VM the first ~4s after ready ran at 1.4k-3k req/s
	// with a p99 of 5-8ms, and every later second at 6.6k-8.2k req/s with a
	// p99 under 0.9ms.
	var warmNext atomic.Int64
	warmEnd := time.Now().Add(warmDur)
	res.count(rd.closedLoop(ctx, clients, in.read.warm, nil, &warmNext, func() bool { return time.Now().After(warmEnd) }, false))
	if warmNext.Load() >= int64(len(in.read.warm)) {
		return nil, errors.New("warm-up traffic exhausted before warm-up ended: raise maxRate")
	}
	mark = res.phase("warm-up", mark)

	// Timed read phase; a traced run repeats it with client spans on.
	var next atomic.Int64
	readPhase := func(traced bool) (*loopResult, []*loopResult, delta, error) {
		a, err := live.snapshot(poll)
		if err != nil {
			return nil, nil, delta{}, err
		}
		all, ws := rd.timedPhase(ctx, clients, &next, time.Duration(cfg.seconds)*time.Second, readWindows, traced)
		if next.Load() >= int64(len(in.read.order)) {
			return nil, nil, delta{}, errors.New("read traffic exhausted before the phase ended: raise maxRate")
		}
		b, err := live.snapshot(poll)
		if err != nil {
			return nil, nil, delta{}, err
		}
		res.count(all)
		return all, ws, delta{a, b}, nil
	}
	stealBefore := stealTicks()
	untraced, ws, d, err := readPhase(false)
	res.env.readSteal = share(float64(stealTicks()-stealBefore), float64(clkTck*cfg.seconds*runtime.NumCPU()))
	if err != nil {
		return nil, err
	}
	p50 := func(l *loopResult) float64 { return us(percentile(l.lat, 0.50)) }
	res.e2e("read_ops_per_s", medianOver(ws, (*loopResult).opsPerSec), "1/s", int(untraced.attempted))
	res.e2e("read_p50_us", medianOver(ws, p50), "us", len(untraced.lat))
	// The gated tail is the p95: the p99 is set by scheduler stalls when
	// other tenants load the machine (on a 2-core VM it ranged 0.95-7.9ms
	// over ten runs while the p50 moved by 5%).
	res.e2e("read_p95_us", us(percentile(untraced.lat, 0.95)), "us", len(untraced.lat))
	res.layer["client.read_p99_us"] = us(percentile(untraced.lat, 0.99))
	res.readProperties(untraced, d)
	res.windows = ws
	if cfg.trace {
		traced, tws, d, err := readPhase(true)
		if err != nil {
			return nil, err
		}
		res.readLayers(w, traced, d)
		res.layer["telemetry.trace_overhead"] = medianOver(tws, p50) - medianOver(ws, p50)
		if err := writeSpans(filepath.Join(work, fmt.Sprintf("trace-seed%d.tsv", cfg.seed)), traced.spans); err != nil {
			return nil, err
		}
		if res.layer["telemetry.scrape_ms"], err = scrapeMillis(live, poll); err != nil {
			return nil, err
		}
	}
	mark = res.phase("read", mark)

	// Probe sets, with nothing else in flight.
	if err := res.probe(ctx, rd, sys, in, cfg); err != nil {
		return nil, err
	}
	driftBefore, sent, err := rd.estimateAll(ctx, sqls(in.driftProbes), true)
	res.attempted += sent
	if err != nil {
		return nil, err
	}
	res.driftBefore = qerrors(in.driftProbes, driftBefore)

	// Adaptation: one client posts feedback rounds, in estimate while the
	// other continues the read stream.
	a0, err := live.snapshot(poll)
	if err != nil {
		return nil, err
	}
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	if w.adaptUnderReads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.adaptRead = rd.closedLoop(ctx, 1, in.read.order, nil, &next, writerDone.Load, false)
		}()
	}
	fb, fbErr := feedbackRounds(ctx, live, c, poll, in.feedback)
	writerDone.Store(true)
	wg.Wait()
	if fbErr != nil {
		return nil, fmt.Errorf("feedback: %w", fbErr)
	}
	if res.adaptRead != nil {
		if next.Load() >= int64(len(in.read.order)) {
			return nil, errors.New("read traffic exhausted during adaptation: raise maxRate or adaptReadBudget")
		}
		res.count(res.adaptRead)
	}
	res.attempted += fb.posted
	res.failed += fb.failed
	a1, err := live.snapshot(poll)
	if err != nil {
		return nil, err
	}
	mark = res.phase("probes+adaptation", mark)
	// The feedback tail is reported ungated: the posts take ~0.5s in all,
	// mostly right after a retrain, and on a 2-core VM their p90 and p99
	// moved by 25-50% between runs.
	res.e2e("feedback_p50_us", us(percentile(fb.lat, 0.50)), "us", len(fb.lat))
	res.layer["online.feedback_p99_us"] = us(percentile(fb.lat, 0.99))
	res.e2e("retrain_s", percentile(fb.retrain, 0.5).Seconds(), "s", len(fb.retrain))
	res.adaptLayers(fb, delta{a0, a1})
	if err := waitWALSynced(ctx, live, poll); err != nil {
		return nil, err
	}
	rss, err := live.peakRSS()
	if err != nil {
		return nil, err
	}

	// Crash recovery, several times: kill -9, restart on the same data dir,
	// time launch → ready. Each restart loads the last checkpoint and replays
	// the same un-retrained WAL tail, and must serve identical estimates.
	wantGen := a1.health.Online.Generation
	var recovers []time.Duration
	var driftAfter []float64
	for i := 0; i < restarts; i++ {
		live.kill()
		s, d, err := launch(ctx, cfg.crnserve, serveArgs(dataDir), filepath.Join(work, fmt.Sprintf("restart%d.log", i)))
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		live = s
		recovers = append(recovers, d)
		h, err := live.healthz(poll)
		if err != nil {
			return nil, err
		}
		res.layer["durable.replayed_records"] = float64(h.Durable.ReplayedRecords)
		if h.Online.Generation != wantGen {
			res.fail("restart %d resumed generation %d, want %d", i, h.Online.Generation, wantGen)
		}
		if fb.promoted > 0 && h.Online.Collector.Staged != lastRound {
			res.fail("restart %d re-staged %d records, want the %d of the un-retrained round", i, h.Online.Collector.Staged, lastRound)
		}
		rd.base = live.base
		cards, sent, err := rd.estimateAll(ctx, sqls(in.driftProbes), true)
		res.attempted += sent
		if err != nil {
			return nil, err
		}
		if driftAfter == nil {
			driftAfter = cards
		} else if !sameBits(driftAfter, cards) {
			res.fail("restart %d served different drift-probe estimates than restart 0", i)
		}
	}
	res.e2e("recover_s", percentile(recovers, 0.5).Seconds(), "s", len(recovers))
	res.recovers = recovers
	res.phase("recovery", mark)
	res.e2e("qerror_p50", percentileF(res.probeQ, 0.50), "ratio", len(res.probeQ))
	res.e2e("qerror_p99", percentileF(res.probeQ, 0.99), "ratio", len(res.probeQ))
	dq := qerrors(in.driftProbes, driftAfter)
	res.e2e("drift_qerror_p50", percentileF(dq, 0.50), "ratio", len(dq))
	res.e2e("drift_qerror_p99", percentileF(dq, 0.99), "ratio", len(dq))
	res.e2e("rss_mb", rss, "MiB", 1)
	return res, nil
}

// probe answers the workload probe set, scores it, and runs the output
// checks that compare code paths and runs.
func (r *result) probe(ctx context.Context, rd *reader, sys *crn.System, in *inputs, cfg config) error {
	qs := sqls(in.probes)
	cards, sent, err := rd.estimateAll(ctx, qs, true)
	r.attempted += sent
	if err != nil {
		return err
	}
	r.probeQ = qerrors(in.probes, cards)
	if rd.batch {
		// The same 64 queries as JSON and as binary frames: bit-identical.
		js, sent, err := rd.estimateAll(ctx, qs[:batchSize], false)
		r.attempted += sent
		if err != nil {
			return err
		}
		if !sameBits(js, cards[:batchSize]) {
			r.fail("JSON and binary /estimate/batch answers differ for the same 64 queries")
		}
	}
	base, err := sys.AnalyzeBaseline()
	if err != nil {
		return err
	}
	pg := make([]float64, len(in.probes))
	for i, p := range in.probes {
		if pg[i], err = base.EstimateCard(p.q); err != nil {
			return err
		}
	}
	r.pgQ = qerrors(in.probes, pg)
	r.layer["pg.qerror_p50"] = percentileF(r.pgQ, 0.50)
	r.layer["pg.qerror_p99"] = percentileF(r.pgQ, 0.99)
	return r.checkAgainstEarlierRuns(cfg, qs, cards)
}

// checkAgainstEarlierRuns compares the probe answers with those of earlier
// runs of the same crnserve binary on the same probe set in this work dir,
// traced or not and with any seed: startup training is deterministic and
// the read phases do not change the pool, so they must match bit for bit.
func (r *result) checkAgainstEarlierRuns(cfg config, qs []string, cards []float64) error {
	bin, err := fileHash(cfg.crnserve)
	if err != nil {
		return err
	}
	var b strings.Builder
	for i, c := range cards {
		fmt.Fprintf(&b, "%016x %s\n", math.Float64bits(c), qs[i])
	}
	set := sha256.Sum256([]byte(strings.Join(qs, "\n")))
	path := filepath.Join(cfg.work, fmt.Sprintf("probes-%s-%s-%x.txt", r.workload.name, bin, set[:8]))
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(b.String()), 0o644)
	case err != nil:
		return err
	case string(prev) != b.String():
		r.fail("probe estimates differ from an earlier run of the same binary (%s)", path)
	}
	return nil
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func sqls(ls []labeled) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.SQL
	}
	return out
}

func qerrors(ls []labeled, cards []float64) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = metrics.CardQError(float64(l.Card), cards[i])
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func percentileF(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return metrics.Percentile(s, p*100)
}

// parseMicros times System.ParseQuery in-process over the read traffic's
// SQL: the parse every crnserve request pays, outside the load phase.
func parseMicros(sys *crn.System, t *readTraffic) float64 {
	var qs []string
	for _, u := range t.units {
		qs = append(qs, u...)
		if len(qs) >= 5000 {
			break
		}
	}
	start := time.Now()
	for _, q := range qs {
		if _, err := sys.ParseQuery(q); err != nil {
			return math.NaN()
		}
	}
	return us(time.Since(start)) / float64(len(qs))
}

// wireMicros times wire.AppendRequest over 64-query frames of the
// workload's SQL (its sessions, or 64 consecutive single queries) and
// wire.DecodeResponse over 64-value response frames, in-process, per frame.
func wireMicros(t *readTraffic) (enc, dec float64) {
	const frames = 1000
	var qs []string
	for _, u := range t.units {
		if len(qs) >= frames*batchSize {
			break
		}
		qs = append(qs, u...)
	}
	var buf []byte
	n := min(len(qs)/batchSize, frames)
	start := time.Now()
	for i := 0; i < n; i++ {
		buf = wire.AppendRequest(buf[:0], qs[i*batchSize:(i+1)*batchSize])
	}
	enc = us(time.Since(start)) / float64(n)
	resp := wire.AppendResponse(nil, make([]float64, batchSize))
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := wire.DecodeResponse(resp); err != nil {
			return enc, math.NaN()
		}
	}
	return enc, us(time.Since(start)) / float64(n)
}

// scrapeMillis times GET /metrics, median of ten.
func scrapeMillis(s *server, c *http.Client) (float64, error) {
	var ds []time.Duration
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		resp, err := c.Get(s.base + "/metrics")
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ds = append(ds, time.Since(t0))
	}
	return float64(percentile(ds, 0.5)) / float64(time.Millisecond), nil
}

// writeSpans writes the traced phase's client spans, one per line:
// request id, span name, parent name, start and end in ns since the phase
// began.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "req\tspan\tparent\tstart_ns\tend_ns\n")
	for _, s := range spans {
		parent := "-"
		if s.name != spanRequest {
			parent = spanNames[spanRequest]
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.req, spanNames[s.name], parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// env describes the machine a result was measured on.
type env struct {
	nproc          int
	goVersion      string
	cpu            string
	isa            string
	sleepOverP50us float64
	sleepOverP99us float64
	readSteal      float64 // share of CPU time the hypervisor took during the timed read phase
}

// stealTicks is the machine's cumulative steal time from /proc/stat.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// probeEnv records the environment, including how far time.Sleep(200µs)
// overshoots here: the reason every workload is a closed loop.
func probeEnv(crndiag string) env {
	e := env{nproc: runtime.NumCPU(), goVersion: runtime.Version(), cpu: "unknown", isa: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	if crndiag != "" {
		if out, err := exec.Command(crndiag, "-kernels").Output(); err == nil {
			e.isa = strings.TrimSpace(string(out))
		}
	}
	var over []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		time.Sleep(200 * time.Microsecond)
		over = append(over, time.Since(t0)-200*time.Microsecond)
	}
	e.sleepOverP50us = us(percentile(over, 0.50))
	e.sleepOverP99us = us(percentile(over, 0.99))
	return e
}
