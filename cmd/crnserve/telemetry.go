package main

import (
	"net/http"
	"net/http/pprof"
	"time"

	"crn"
	"crn/internal/telemetry"
)

// This file wires the serving telemetry bundle into the HTTP front end:
// GET /metrics (Prometheus text exposition over the estimator's registry),
// the server-level collector families (HTTP routes, ingest gate, wire
// codec traffic and frame sizes), and the optional separate operational
// listener (-metrics-addr).

// registerMetrics registers the server-level families on the telemetry
// registry: per-route HTTP outcomes, the ingest gate, /estimate/batch codec
// traffic with frame-size histograms, and process uptime. newServer calls
// it once; the collectors read the server's fields at gather time, so
// setIngestLimit may run later.
func (s *server) registerMetrics() {
	reg := s.tel.Registry()

	// Wire layer: frame sizes as histograms (the shape of batch traffic),
	// request/byte totals as collector families over the counters the
	// handlers already maintain.
	reqBytes := reg.HistogramVec("crn_wire_request_bytes",
		"Request body size of /estimate/batch calls, per codec.",
		"codec", telemetry.SizeOpts)
	respBytes := reg.HistogramVec("crn_wire_response_bytes",
		"Response body size of /estimate/batch calls, per codec.",
		"codec", telemetry.SizeOpts)
	s.jsonReqBytes = reqBytes.With("json")
	s.jsonRespBytes = respBytes.With("json")
	s.binReqBytes = reqBytes.With("binary")
	s.binRespBytes = respBytes.With("binary")
	reg.CollectCounter("crn_wire_requests_total",
		"Batch estimate requests by codec.", "codec", func(emit telemetry.Emit) {
			emit(float64(s.wireIO.jsonRequests.Load()), "json")
			emit(float64(s.wireIO.binaryRequests.Load()), "binary")
		})
	reg.CollectCounter("crn_wire_in_bytes_total",
		"Batch request bytes read by codec.", "codec", func(emit telemetry.Emit) {
			emit(float64(s.wireIO.jsonBytesIn.Load()), "json")
			emit(float64(s.wireIO.binaryBytesIn.Load()), "binary")
		})
	reg.CollectCounter("crn_wire_out_bytes_total",
		"Batch response bytes written by codec.", "codec", func(emit telemetry.Emit) {
			emit(float64(s.wireIO.jsonBytesOut.Load()), "json")
			emit(float64(s.wireIO.binaryBytesOut.Load()), "binary")
		})
	reg.CollectCounter("crn_wire_buffer_ops_total",
		"Binary-path pooled buffer operations (get, miss).", "op", func(emit telemetry.Emit) {
			gets, misses := s.bufPool.Stats()
			emit(float64(gets), "get")
			emit(float64(misses), "miss")
		})
	// HTTP layer: per-route outcome counters, gathered from the atomics
	// the counted middleware maintains.
	routes := []struct {
		name string
		ep   *endpointCounters
	}{
		{"estimate", &s.epEstimate},
		{"estimate_batch", &s.epBatch},
		{"record", &s.epRecord},
		{"feedback", &s.epFeedback},
	}
	reg.CollectCounter("crn_http_requests_total",
		"HTTP requests by route.", "route", func(emit telemetry.Emit) {
			for _, rt := range routes {
				emit(float64(rt.ep.requests.Load()), rt.name)
			}
		})
	reg.CollectCounter("crn_http_shed_total",
		"HTTP requests shed with 429 by route.", "route", func(emit telemetry.Emit) {
			for _, rt := range routes {
				emit(float64(rt.ep.shed.Load()), rt.name)
			}
		})
	reg.CollectCounter("crn_http_failures_total",
		"HTTP requests failed with a non-shed 4xx/5xx by route.", "route", func(emit telemetry.Emit) {
			for _, rt := range routes {
				emit(float64(rt.ep.failed.Load()), rt.name)
			}
		})

	// Ingest gate: the server-level admission bound over /record and
	// /feedback (the endpoints that execute the truth oracle).
	reg.CollectGauge("crn_ingest_inflight",
		"Concurrently admitted /record + /feedback requests.", "", func(emit telemetry.Emit) {
			emit(float64(s.ingestGate.Stats().Inflight), "")
		})
	reg.CollectCounter("crn_ingest_requests_total",
		"Ingest-gate decisions over /record + /feedback (admitted, shed).",
		"decision", func(emit telemetry.Emit) {
			gs := s.ingestGate.Stats()
			emit(float64(gs.Admitted), "admitted")
			emit(float64(gs.Shed), "shed")
		})
	reg.CollectCounter("crn_recorded_queries_total",
		"Queries appended to the pool via /record.", "", func(emit telemetry.Emit) {
			emit(float64(s.recorded.Load()), "")
		})
	reg.GaugeFunc("crn_process_uptime_seconds",
		"Seconds since the server started.", func() float64 {
			return time.Since(s.started).Seconds()
		})
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", crn.MetricsContentType)
	if err := s.tel.Registry().WriteText(w); err != nil && s.logger != nil {
		s.logger.Printf("write metrics: %v", err)
	}
}

// metricsHandler builds the route table of the separate operational
// listener (-metrics-addr): /metrics plus /debug/pprof — the point of the
// second listener is that neither is exposed on the public serving port.
func (s *server) metricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
