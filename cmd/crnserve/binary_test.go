package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"crn/internal/wire"
)

func postBinary(t *testing.T, url string, frame []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestBinaryBatchMatchesJSON pins the tentpole contract: the binary protocol
// returns bit-identical cardinalities to the JSON path for the same batch.
func TestBinaryBatchMatchesJSON(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	queries := []string{
		"SELECT * FROM title WHERE title.production_year > 1980",
		"SELECT * FROM title WHERE title.kind_id = 2",
		"SELECT * FROM title",
	}

	_, jsonBody := postJSON(t, ts.URL+"/estimate/batch", map[string]any{"queries": queries})
	var jr batchResponse
	if err := json.Unmarshal(jsonBody, &jr); err != nil {
		t.Fatal(err)
	}

	status, body := postBinary(t, ts.URL+"/estimate/batch", wire.AppendRequest(nil, queries))
	if status != http.StatusOK {
		t.Fatalf("binary batch: status %d body %s", status, body)
	}
	cards, err := wire.DecodeResponse(body)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if len(cards) != len(queries) {
		t.Fatalf("got %d cardinalities, want %d", len(cards), len(queries))
	}
	for i := range cards {
		if math.Float64bits(cards[i]) != math.Float64bits(jr.Cardinalities[i]) {
			t.Errorf("query %d: binary %v != json %v", i, cards[i], jr.Cardinalities[i])
		}
	}
}

func TestBinaryBatchErrors(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	// Malformed frame.
	if status, _ := postBinary(t, ts.URL+"/estimate/batch", []byte{0x42, 1, 2}); status != http.StatusBadRequest {
		t.Errorf("malformed frame: status %d", status)
	}
	// Empty batch.
	if status, _ := postBinary(t, ts.URL+"/estimate/batch", wire.AppendRequest(nil, nil)); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", status)
	}
	// Unparseable dialect maps through statusFor like the JSON path.
	status, body := postBinary(t, ts.URL+"/estimate/batch",
		wire.AppendRequest(nil, []string{"SELECT count(*) FROM title"}))
	if status != http.StatusBadRequest {
		t.Errorf("dialect error: status %d body %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("error body not JSON: %s (%v)", body, err)
	}
}

// TestHealthzWireSection checks the /estimate/batch traffic counters per
// codec and the binary path's buffer reuse on /metrics; /healthz does not
// carry them.
func TestHealthzWireSection(t *testing.T) {
	ts := httptest.NewServer(testServer(t).handler())
	defer ts.Close()

	queries := []string{"SELECT * FROM title WHERE title.production_year > 1985"}
	frame := wire.AppendRequest(nil, queries)
	for i := 0; i < 3; i++ {
		if status, body := postBinary(t, ts.URL+"/estimate/batch", frame); status != http.StatusOK {
			t.Fatalf("binary batch %d: status %d body %s", i, status, body)
		}
	}
	postJSON(t, ts.URL+"/estimate/batch", map[string]any{"queries": queries})

	fams := scrape(t, ts.URL)
	sample := func(family, key, value string) float64 {
		v, ok := fams[family].Sample(key, value)
		if !ok {
			t.Errorf("%s{%s=%q} missing", family, key, value)
		}
		return v
	}
	if n := sample("crn_wire_requests_total", "codec", "binary"); n < 3 {
		t.Errorf("binary requests = %v, want >= 3", n)
	}
	if n := sample("crn_wire_requests_total", "codec", "json"); n < 1 {
		t.Errorf("json requests = %v, want >= 1", n)
	}
	if in := sample("crn_wire_in_bytes_total", "codec", "binary"); in < float64(3*len(frame)) {
		t.Errorf("binary bytes in = %v, want >= %d", in, 3*len(frame))
	}
	if out := sample("crn_wire_out_bytes_total", "codec", "binary"); out == 0 {
		t.Error("binary bytes out = 0")
	}
	if in, out := sample("crn_wire_in_bytes_total", "codec", "json"),
		sample("crn_wire_out_bytes_total", "codec", "json"); in == 0 || out == 0 {
		t.Errorf("json bytes: in=%v out=%v", in, out)
	}
	// Three binary requests = six buffer gets (body + response each); after
	// the first request warmed the pool the rest must reuse.
	gets := sample("crn_wire_buffer_ops_total", "op", "get")
	misses := sample("crn_wire_buffer_ops_total", "op", "miss")
	if gets < 6 {
		t.Errorf("buffer gets = %v, want >= 6", gets)
	}
	if gets-misses <= 0 {
		t.Errorf("buffer reuse: gets=%v misses=%v, want some reuse", gets, misses)
	}
	if _, ok := healthzKeys(t, ts.URL)["wire"]; ok {
		t.Error("/healthz carries wire; it belongs on /metrics")
	}
}
