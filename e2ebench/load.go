package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crn/internal/wire"
)

// newClient returns a keep-alive HTTP client for up to conns concurrent
// loopback connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// Span names. A request span is the root; encode, http and decode are its
// children and share its request id.
const (
	spanRequest = iota
	spanEncode
	spanHTTP
	spanDecode
	nSpanNames
)

var spanNames = [nSpanNames]string{"request", "encode", "http", "decode"}

type span struct {
	req        uint64
	name       uint8
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans in memory for one worker; a nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) rec(req uint64, name uint8, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{req: req, name: name, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
}

// outcome classifies one operation.
type outcome uint8

const (
	opOK      outcome = iota
	opFailed          // transport error or non-200 status
	opInvalid         // 200 with an answer that fails the output checks
)

// reader sends one workload's read requests.
type reader struct {
	c       *http.Client
	base    string
	batch   bool // 64-query /estimate/batch sessions instead of single /estimate
	traffic *readTraffic
}

// worker-local buffers, reused across requests.
type readBuf struct {
	req, resp bytes.Buffer
	frame     []byte
}

// send issues the read request for unit u as request id id. It returns the
// queries answered, the client round trip, and the outcome; cards receives
// the answers when non-nil.
func (r *reader) send(ctx context.Context, id uint64, u []string, binary bool, b *readBuf, tr *tracer, cards *[]float64) (int, time.Duration, outcome) {
	t0 := time.Now()
	b.req.Reset()
	path, ctype := "/estimate", "application/json"
	switch {
	case !r.batch:
		json.NewEncoder(&b.req).Encode(struct {
			Query string `json:"query"`
		}{u[0]})
	case binary:
		b.frame = wire.AppendRequest(b.frame[:0], u)
		b.req.Write(b.frame)
		path, ctype = "/estimate/batch", wire.ContentType
	default:
		json.NewEncoder(&b.req).Encode(struct {
			Queries []string `json:"queries"`
		}{u})
		path = "/estimate/batch"
	}
	t1 := time.Now()
	tr.rec(id, spanEncode, t0, t1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(b.req.Bytes()))
	if err != nil {
		return 0, 0, opFailed
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := r.c.Do(req)
	if err != nil {
		return 0, 0, opFailed
	}
	b.resp.Reset()
	_, err = b.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	tr.rec(id, spanHTTP, t1, t2)
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, 0, opFailed
	}
	var got []float64
	switch {
	case !r.batch:
		var out struct {
			Cardinality *float64 `json:"cardinality"`
		}
		if json.Unmarshal(b.resp.Bytes(), &out) == nil && out.Cardinality != nil {
			got = []float64{*out.Cardinality}
		}
	case binary:
		got, _ = wire.DecodeResponse(b.resp.Bytes())
	default:
		var out struct {
			Cardinalities []float64 `json:"cardinalities"`
		}
		if json.Unmarshal(b.resp.Bytes(), &out) == nil {
			got = out.Cardinalities
		}
	}
	t3 := time.Now()
	tr.rec(id, spanDecode, t2, t3)
	tr.rec(id, spanRequest, t0, t3)
	if cards != nil {
		*cards = append(*cards, got...)
	}
	if !validAnswers(got, len(u)) {
		return 0, t2.Sub(t1), opInvalid
	}
	return len(u), t2.Sub(t1), opOK
}

// validAnswers is the output check every read answer passes: one value per
// query, each finite and non-negative.
func validAnswers(got []float64, n int) bool {
	if len(got) != n {
		return false
	}
	for _, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return true
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	lat                        []time.Duration // round trips of successful requests
	ops                        int64           // queries answered
	attempted, failed, invalid int64
	fresh                      int64   // requests that were first sightings
	dedupSum                   float64 // sum of per-request in-batch dedup shares
	elapsed                    time.Duration
	spans                      []span
}

func (l *loopResult) opsPerSec() float64 { return float64(l.ops) / l.elapsed.Seconds() }

func (l *loopResult) dedup() float64 { return share(l.dedupSum, float64(l.attempted)) }

// add pools o into l.
func (l *loopResult) add(o *loopResult) {
	l.lat = append(l.lat, o.lat...)
	l.ops += o.ops
	l.attempted += o.attempted
	l.failed += o.failed
	l.invalid += o.invalid
	l.fresh += o.fresh
	l.dedupSum += o.dedupSum
	l.elapsed += o.elapsed
	l.spans = append(l.spans, o.spans...)
}

// closedLoop runs workers closed-loop clients over order until stop
// returns true: each client sends its next request only after the previous
// answer arrived, the way a query optimizer waits for each estimate.
// next numbers requests across calls, so consecutive phases continue the
// same stream. Request i is a binary batch when i is even.
func (r *reader) closedLoop(ctx context.Context, workers int, order []int32, fresh []bool, next *atomic.Int64, stop func() bool, traced bool) *loopResult {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		res = &loopResult{}
	)
	epoch := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				b     readBuf
				tr    *tracer
				local loopResult
			)
			if traced {
				tr = &tracer{epoch: epoch}
			}
			for !stop() && ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(order)) {
					break
				}
				u := r.traffic.units[order[i]]
				n, rt, oc := r.send(ctx, uint64(i), u, i%2 == 0, &b, tr, nil)
				local.attempted++
				switch oc {
				case opOK:
					local.lat = append(local.lat, rt)
					local.ops += int64(n)
				case opFailed:
					local.failed++
				case opInvalid:
					local.invalid++
				}
				if fresh != nil && fresh[i] {
					local.fresh++
				}
				if r.batch {
					local.dedupSum += dedupShare(u)
				}
			}
			if tr != nil {
				local.spans = tr.spans
			}
			mu.Lock()
			res.add(&local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(epoch)
	return res
}

// timedPhase runs the closed loop for d split into windows of equal length
// and returns every window plus their pool. Throughput and median latency
// are reported as the median over windows, which a short stall on the
// shared machine moves less than it moves one long window.
func (r *reader) timedPhase(ctx context.Context, workers int, next *atomic.Int64, d time.Duration, windows int, traced bool) (all *loopResult, ws []*loopResult) {
	all = &loopResult{}
	for k := 0; k < windows; k++ {
		end := time.Now().Add(d / time.Duration(windows))
		l := r.closedLoop(ctx, workers, r.traffic.order, r.traffic.fresh, next, func() bool { return time.Now().After(end) }, traced)
		ws = append(ws, l)
		all.add(l)
	}
	return all, ws
}

// medianOver is the median of f over windows.
func medianOver(ws []*loopResult, f func(*loopResult) float64) float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = f(w)
	}
	return percentileF(v, 0.5)
}

// dedupShare is the share of a batch's queries that repeat an earlier query
// of the same batch.
func dedupShare(u []string) float64 {
	seen := make(map[string]struct{}, len(u))
	for _, s := range u {
		seen[s] = struct{}{}
	}
	return 1 - float64(len(seen))/float64(len(u))
}

// estimateAll answers qs one request at a time (or one 64-query batch at a
// time) with nothing else in flight, in the given codec for batches. It
// also returns the number of requests sent.
func (r *reader) estimateAll(ctx context.Context, qs []string, binary bool) ([]float64, int64, error) {
	var b readBuf
	out := make([]float64, 0, len(qs))
	step := 1
	if r.batch {
		step = batchSize
	}
	var sent int64
	for i := 0; i < len(qs); i += step {
		u := qs[i:min(i+step, len(qs))]
		sent++
		if _, _, oc := r.send(ctx, 0, u, binary, &b, nil, &out); oc != opOK {
			return nil, sent, fmt.Errorf("probe request %d failed (outcome %d)", i/step, oc)
		}
	}
	return out, sent, nil
}

// percentile returns the p-quantile (0..1) of ds, interpolating between
// closest ranks.
func percentile(ds []time.Duration, p float64) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(percentileF(v, p))
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
