package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindFunc
)

// entry is one named metric plus its help string.
type entry struct {
	kind metricKind
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() float64
}

// Registry is a named collection of metrics. Metric names are free-form
// dotted paths ("wire.client.probe.latency"); rendering sanitizes them per
// output format. Get-or-create accessors make registration idempotent, so
// instrumented packages can look metrics up by name without coordinating.
// A Registry is safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{entries: make(map[string]*entry)} }

// defaultRegistry is the process-wide registry used by Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// getLocked finds or creates the entry for name; the caller holds r.mu.
func (r *Registry) getLocked(name string, kind metricKind) *entry {
	e, ok := r.entries[name]
	if !ok {
		e = &entry{kind: kind}
		r.entries[name] = e
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	return e
}

// Counter returns the counter registered under name, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.getLocked(name, kindCounter)
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.getLocked(name, kindGauge)
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// Histogram returns the histogram registered under name, creating it (with
// the default one-minute window) if absent.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.getLocked(name, kindHistogram)
	if e.h == nil {
		e.h = NewHistogram(DefaultWindow, 4)
	}
	return e.h
}

// Func registers a callback gauge: the function is invoked at render time.
// Re-registering a name replaces the callback.
func (r *Registry) Func(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.getLocked(name, kindFunc)
	e.fn = fn
}

// Help attaches a help string rendered as the Prometheus # HELP line.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		e.help = help
	}
}

// snapshotEntry is a rendered view of one metric, decoupled from live state.
type snapshotEntry struct {
	name string
	kind metricKind
	help string
	u    uint64            // counter value
	i    int64             // gauge value
	f    float64           // func value
	hist HistogramSnapshot // histogram view
}

// snapshot copies every metric's identity under the lock, then evaluates
// callbacks and histogram quantiles outside it (both may take their own
// locks or run arbitrary user code).
func (r *Registry) snapshot() []snapshotEntry {
	r.mu.Lock()
	type live struct {
		name string
		kind metricKind
		help string
		c    *Counter
		g    *Gauge
		h    *Histogram
		fn   func() float64
	}
	lives := make([]live, 0, len(r.entries))
	for n, e := range r.entries {
		lives = append(lives, live{n, e.kind, e.help, e.c, e.g, e.h, e.fn})
	}
	r.mu.Unlock()
	sort.Slice(lives, func(i, j int) bool { return lives[i].name < lives[j].name })

	out := make([]snapshotEntry, 0, len(lives))
	for _, l := range lives {
		se := snapshotEntry{name: l.name, kind: l.kind, help: l.help}
		switch l.kind {
		case kindCounter:
			if l.c != nil {
				se.u = l.c.Value()
			}
		case kindGauge:
			if l.g != nil {
				se.i = l.g.Value()
			}
		case kindHistogram:
			if l.h != nil {
				se.hist = l.h.Snapshot()
			}
		case kindFunc:
			if l.fn != nil {
				se.f = l.fn()
			}
		}
		out = append(out, se)
	}
	return out
}

// WriteExpvar renders the registry as a single JSON object, one key per
// metric, in the spirit of the expvar package. Histograms render as nested
// objects with count, sum_seconds, and quantile fields.
func (r *Registry) WriteExpvar(w io.Writer) error {
	obj := make(map[string]any)
	for _, se := range r.snapshot() {
		switch se.kind {
		case kindCounter:
			obj[se.name] = se.u
		case kindGauge:
			obj[se.name] = se.i
		case kindFunc:
			obj[se.name] = se.f
		case kindHistogram:
			m := map[string]any{
				"count":       se.hist.Count,
				"sum_seconds": se.hist.Sum.Seconds(),
			}
			// JSON has no NaN: with an empty window the quantile keys are
			// omitted entirely rather than reported as a bogus 0s.
			if se.hist.WindowCount > 0 {
				m["p50_seconds"] = se.hist.P50.Seconds()
				m["p95_seconds"] = se.hist.P95.Seconds()
				m["p99_seconds"] = se.hist.P99.Seconds()
				// Exemplars: the trace nearest each quantile's bucket, so a
				// spike here points at a concrete /debug/traces entry.
				if se.hist.P50Trace != 0 {
					m["p50_trace"] = FormatTraceID(se.hist.P50Trace)
				}
				if se.hist.P95Trace != 0 {
					m["p95_trace"] = FormatTraceID(se.hist.P95Trace)
				}
				if se.hist.P99Trace != 0 {
					m["p99_trace"] = FormatTraceID(se.hist.P99Trace)
				}
			}
			obj[se.name] = m
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}

// promName sanitizes a metric name to the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if ok {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Counters render as counters, gauges and funcs as
// gauges, histograms as summaries with quantile labels plus _sum and _count
// series (durations in seconds, the Prometheus convention).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, se := range r.snapshot() {
		name := promName(se.name)
		if se.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, se.help); err != nil {
				return err
			}
		}
		var err error
		switch se.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, se.u)
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, se.i)
		case kindFunc:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, se.f)
		case kindHistogram:
			// An empty window has no quantiles: Prometheus summaries report
			// NaN in that case, never a fabricated 0s latency.
			p50, p95, p99 := se.hist.P50.Seconds(), se.hist.P95.Seconds(), se.hist.P99.Seconds()
			if se.hist.WindowCount == 0 {
				p50, p95, p99 = math.NaN(), math.NaN(), math.NaN()
			}
			_, err = fmt.Fprintf(w,
				"# TYPE %s summary\n%s{quantile=\"0.5\"} %g\n%s{quantile=\"0.95\"} %g\n%s{quantile=\"0.99\"} %g\n%s_sum %g\n%s_count %d\n",
				name,
				name, p50,
				name, p95,
				name, p99,
				name, se.hist.Sum.Seconds(),
				name, se.hist.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MetricsHandler returns an http.Handler for a /metrics endpoint: it serves
// the Prometheus text format by default and the expvar-style JSON object
// when the request asks for ?format=json.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = r.WriteExpvar(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
