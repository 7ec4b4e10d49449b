package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"crn"
)

// TestRecordInvalidatesAndEstimateSeesNewEntry drives the serving-side
// cache-correctness scenario end to end: over an empty pool the estimator
// has nothing to match (422), a /record adds the first pool entry (and
// flushes the representation cache), and the very next /estimate must
// reflect that entry (200 with a cardinality).
func TestRecordInvalidatesAndEstimateSeesNewEntry(t *testing.T) {
	base := testServer(t)
	empty := base.sys.NewQueriesPool()
	srv := newServer(base.sys, base.model, empty,
		base.sys.CardinalityEstimator(base.model, empty), crn.NewTelemetry(), nil)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	probe := "SELECT * FROM title WHERE title.production_year > 1960"

	status, _, err := postJSONErr(ts.URL+"/estimate", map[string]string{"query": probe})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("empty pool estimate: status %d, want 422", status)
	}

	status, body, err := postJSONErr(ts.URL+"/record",
		map[string]string{"query": "SELECT * FROM title WHERE title.production_year > 1950"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("/record: status %d body %s", status, body)
	}

	status, body, err = postJSONErr(ts.URL+"/estimate", map[string]string{"query": probe})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("estimate after record: status %d body %s (new pool entry not visible)", status, body)
	}
	var er estimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Cardinality == nil || *er.Cardinality < 0 {
		t.Fatalf("cardinality after record = %v", er.Cardinality)
	}

	// The batch path must agree with the single path over the mutated pool.
	status, body, err = postJSONErr(ts.URL+"/estimate/batch", map[string]any{"queries": []string{probe}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("/estimate/batch after record: status %d body %s", status, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Cardinalities) != 1 || br.Cardinalities[0] != *er.Cardinality {
		t.Fatalf("batch %v != single %v after record", br.Cardinalities, *er.Cardinality)
	}
}

// TestHealthzReportsRepCache checks the representation-cache counters move
// under load on CacheStats and /metrics; /healthz does not carry them.
func TestHealthzReportsRepCache(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Two identical batch estimates: the second should hit the cache.
	for i := 0; i < 2; i++ {
		status, body, err := postJSONErr(ts.URL+"/estimate/batch", map[string]any{"queries": []string{
			"SELECT * FROM title WHERE title.production_year > 1980",
		}})
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d body %s", i, status, body)
		}
	}
	cs := srv.est.CacheStats()
	if cs.Capacity == 0 {
		t.Errorf("rep cache not configured: %+v", cs)
	}
	if cs.Hits+cs.Misses == 0 {
		t.Errorf("rep cache counters never moved: %+v", cs)
	}
	fam := scrape(t, ts.URL)["crn_repcache_lookups_total"]
	hits, _ := fam.Sample("result", "hit")
	misses, _ := fam.Sample("result", "miss")
	if hits+misses == 0 {
		t.Errorf("crn_repcache_lookups_total never moved (hit=%v miss=%v)", hits, misses)
	}
	if _, ok := healthzKeys(t, ts.URL)["rep_cache"]; ok {
		t.Error("/healthz carries rep_cache; it belongs on /metrics")
	}
}
