package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tianhe/internal/experiments"
	"tianhe/internal/serve"
	"tianhe/internal/telemetry"
)

func testDaemon(t *testing.T) *daemon {
	t.Helper()
	tel := telemetry.New()
	d, err := newDaemon(serve.Config{Seed: 42, Workers: 2, Telemetry: tel}, tel)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func post(t *testing.T, d *daemon, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, req)
	return rec
}

func TestDaemonJobLifecycle(t *testing.T) {
	d := testDaemon(t)
	rec := post(t, d, `{"tenant":"acme","kind":"solve","n":512}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp, err := serve.ParseResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("response: %v", err)
	}
	if resp.Status != "ok" || resp.ID != 1 || resp.Tenant != "acme" {
		t.Fatalf("response: %+v", resp)
	}
	// A second job advances the ID and completes as well.
	resp2, err := serve.ParseResponse(post(t, d, `{"tenant":"acme","kind":"dgemm","m":64,"n":256,"k":256}`).Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ID != 2 || resp2.Status != "ok" {
		t.Fatalf("second response: %+v", resp2)
	}
}

func TestDaemonRejectsMalformed(t *testing.T) {
	d := testDaemon(t)
	for _, body := range []string{
		`not json`,
		`{"tenant":"a","kind":"lu","n":64}`,
		`{"kind":"solve","n":64}`,
		`{"tenant":"a","kind":"solve","n":-1}`,
	} {
		if rec := post(t, d, body); rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
}

func TestDaemonMetricsAndHealth(t *testing.T) {
	d := testDaemon(t)
	post(t, d, `{"tenant":"acme","kind":"solve","n":256}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	d.mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "serve.jobs.completed") {
		t.Fatalf("metrics: %d\n%s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "serve.tenant.acme.latency_seconds") {
		t.Fatalf("per-tenant metrics missing:\n%s", rec.Body.String())
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	d.mux().ServeHTTP(rec, req)
	var health struct {
		Status string
		Stats  serve.Stats
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Stats.Completed != 1 {
		t.Fatalf("health: %+v", health)
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates("500, 1000,2000")
	if err != nil || len(rates) != 3 || rates[2] != 2000 {
		t.Fatalf("rates %v err %v", rates, err)
	}
	if _, err := parseRates("12,zero"); err == nil {
		t.Fatal("bad rate accepted")
	}
	if rates, err := parseRates(""); err != nil || rates != nil {
		t.Fatalf("empty: %v %v", rates, err)
	}
}

// TestRunBenchAndRegressionGuard checks the artifact and the property the
// byte-for-byte guard on BENCH_serve.json rests on: a rerun at another
// worker count writes the identical bytes.
func TestRunBenchAndRegressionGuard(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var buf bytes.Buffer
	// A deliberately small trajectory to keep the test tier fast.
	if err := runBench(&buf, 42, 128, 2, "1000,4000", out, 2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.ServeBenchResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Schema != experiments.ServeBenchSchema || res.PeakThroughput <= 0 {
		t.Fatalf("artifact: %+v", res)
	}
	if len(res.Healthy) != 2 || len(res.LostGPU) != 2 {
		t.Fatalf("points: %d healthy, %d lost-gpu", len(res.Healthy), len(res.LostGPU))
	}
	if !strings.Contains(buf.String(), "saturation") {
		t.Fatalf("summary missing:\n%s", buf.String())
	}

	rerun := filepath.Join(dir, "rerun.json")
	if err := runBench(&buf, 42, 128, 2, "1000,4000", rerun, 1); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(rerun)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("rerun at -par 1 wrote different artifact bytes than -par 2")
	}
}
