package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(time.Minute, 4)
	// 90 fast observations around 1µs, 10 slow around 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 500*time.Nanosecond || p50 > 4*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs", p50)
	}
	if p99 < 500*time.Microsecond || p99 > 4*time.Millisecond {
		t.Errorf("p99 = %v, want ~1ms", p99)
	}
	if p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	if h.Max() < time.Millisecond {
		t.Errorf("max = %v, want >= 1ms", h.Max())
	}
}

func TestHistogramEmptyAndEdgeQuantiles(t *testing.T) {
	h := NewHistogram(0, 0) // defaults
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	h.Observe(-time.Second) // clamps to zero
	h.Observe(time.Second)
	if got := h.Quantile(2); got == 0 { // q clamps to 1
		t.Fatalf("q>1 quantile = 0, want max bucket")
	}
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
}

func TestHistogramWindowExpiry(t *testing.T) {
	h := NewHistogram(4*time.Second, 4)
	now := time.Unix(1000, 0)
	h.setClock(func() time.Time { return now })
	h.Observe(time.Millisecond)
	if got := h.Quantile(0.5); got == 0 {
		t.Fatal("fresh observation invisible")
	}
	// Advance past the full window: the observation must age out of the
	// quantiles but stay in the lifetime count.
	now = now.Add(10 * time.Second)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("expired observation still visible: p50 = %v", got)
	}
	if h.Count() != 1 {
		t.Fatalf("lifetime count = %d, want 1", h.Count())
	}
}

func TestRegistryRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("sched.accepted").Add(7)
	r.Gauge("site.pending-holds").Set(3)
	r.Func("site.utilization", func() float64 { return 0.25 })
	r.Histogram("rpc.probe.latency").Observe(2 * time.Millisecond)
	r.Help("sched.accepted", "jobs accepted")

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# HELP sched_accepted jobs accepted",
		"# TYPE sched_accepted counter",
		"sched_accepted 7",
		"# TYPE site_pending_holds gauge",
		"site_pending_holds 3",
		"site_utilization 0.25",
		"# TYPE rpc_probe_latency summary",
		`rpc_probe_latency{quantile="0.99"}`,
		"rpc_probe_latency_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}

	var ev bytes.Buffer
	if err := r.WriteExpvar(&ev); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(ev.Bytes(), &obj); err != nil {
		t.Fatalf("expvar output not JSON: %v\n%s", err, ev.String())
	}
	if obj["sched.accepted"] != float64(7) {
		t.Errorf("expvar counter = %v, want 7", obj["sched.accepted"])
	}
	hist, ok := obj["rpc.probe.latency"].(map[string]any)
	if !ok || hist["count"] != float64(1) {
		t.Errorf("expvar histogram = %v", obj["rpc.probe.latency"])
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x")
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()

	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "hits 1") {
		t.Errorf("prometheus endpoint output:\n%s", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}

	rec = httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var obj map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
		t.Fatalf("json endpoint: %v", err)
	}
	if obj["hits"] != float64(1) {
		t.Errorf("json endpoint hits = %v", obj["hits"])
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Duration(j) * time.Microsecond)
				r.Gauge("g").Add(1)
			}
		}()
	}
	var render sync.WaitGroup
	render.Add(1)
	go func() {
		defer render.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			_ = r.WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	render.Wait()
	if got := r.Counter("c").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
}

// TestEmptyHistogramRendering covers the n=0 case: a registered histogram
// that has never observed anything (a freshly attached WAL, say) must not
// report fabricated 0s quantiles — Prometheus gets NaN, JSON omits the keys.
func TestEmptyHistogramRendering(t *testing.T) {
	r := NewRegistry()
	r.Histogram("wal.append.latency")

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		`wal_append_latency{quantile="0.5"} NaN`,
		`wal_append_latency{quantile="0.99"} NaN`,
		"wal_append_latency_count 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}

	var ev bytes.Buffer
	if err := r.WriteExpvar(&ev); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(ev.Bytes(), &obj); err != nil {
		t.Fatalf("expvar output not JSON: %v\n%s", err, ev.String())
	}
	hist, ok := obj["wal.append.latency"].(map[string]any)
	if !ok {
		t.Fatalf("expvar histogram = %v", obj["wal.append.latency"])
	}
	if hist["count"] != float64(0) {
		t.Errorf("empty histogram count = %v", hist["count"])
	}
	for _, k := range []string{"p50_seconds", "p95_seconds", "p99_seconds"} {
		if _, present := hist[k]; present {
			t.Errorf("empty histogram leaked quantile key %q", k)
		}
	}
}
