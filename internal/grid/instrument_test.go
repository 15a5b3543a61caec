package grid

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

func instrTestSite(t *testing.T, name string) *Site {
	t.Helper()
	s, err := NewSite(name, core.Config{
		Servers:  8,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSiteStatus(t *testing.T) {
	site := instrTestSite(t, "alpha")
	if _, err := site.Prepare(0, "h1", 0, period.Time(period.Hour), 4, period.Hour); err != nil {
		t.Fatal(err)
	}
	st := site.Status()
	if st.Name != "alpha" || st.Servers != 8 {
		t.Errorf("identity = %q/%d", st.Name, st.Servers)
	}
	if st.PendingHolds != 1 || st.Prepared != 1 {
		t.Errorf("holds = %d, prepared = %d; want 1, 1", st.PendingHolds, st.Prepared)
	}
	if st.Sched.Accepted != 1 {
		t.Errorf("embedded scheduler accepted = %d, want 1", st.Sched.Accepted)
	}
	if st.Utilization <= 0 {
		t.Errorf("utilization = %v, want > 0", st.Utilization)
	}
	if st.Ops == 0 {
		t.Error("ops = 0, want > 0")
	}

	if err := site.Commit(0, "h1"); err != nil {
		t.Fatal(err)
	}
	st = site.Status()
	if st.PendingHolds != 0 || st.Committed != 1 {
		t.Errorf("after commit: holds = %d, committed = %d", st.PendingHolds, st.Committed)
	}
}

// expvar renders reg and returns its numeric values by metric name.
func expvar(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteExpvar(&b); err != nil {
		t.Fatal(err)
	}
	var all map[string]any
	if err := json.Unmarshal(b.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for k, v := range all {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// TestSiteInstrumentEmitsEventsAndMetrics: each 2PC event a site decides and
// the embedded scheduler's outcomes reach the registry Instrument wires.
func TestSiteInstrumentEmitsEventsAndMetrics(t *testing.T) {
	site := instrTestSite(t, "alpha")
	reg := obs.NewRegistry()
	site.Instrument(reg)

	if _, err := site.Prepare(0, "h1", 0, period.Time(period.Hour), 2, period.Minute); err != nil {
		t.Fatal(err)
	}
	if err := site.Abort(0, "h1"); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Prepare(0, "h2", 0, period.Time(period.Hour), 2, period.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Prepare(0, "h3", 0, period.Time(period.Hour), 99, period.Minute); err == nil {
		t.Fatal("want a refusal for 99 servers at an 8-server site")
	}
	// Advance past the lease: h2 expires.
	site.Probe(period.Time(period.Hour), period.Time(period.Hour), period.Time(2*period.Hour))

	got := expvar(t, reg)
	for name, want := range map[string]float64{
		"site.prepared": 2, "site.aborted": 1, "site.expired": 1, "site.pending_holds": 0,
		"sched.submitted": 3, "sched.accepted": 2, "sched.rejected": 1, "sched.attempts": 2,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// TestSiteInstrumentRendersWhileServing: the registry reads the scheduler's
// counters under the site lock while writers run; under -race this shows the
// render path and the write path share nothing unsynchronized.
func TestSiteInstrumentRendersWhileServing(t *testing.T) {
	site := instrTestSite(t, "alpha")
	reg := obs.NewRegistry()
	site.Instrument(reg)
	const n = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			hold := fmt.Sprintf("h%d", i)
			start := period.Time(i) * period.Time(period.Minute)
			if _, err := site.Prepare(0, hold, start, start+period.Time(period.Minute), 1, period.Hour); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for rendering := true; rendering; {
		select {
		case <-done:
			rendering = false
		default:
		}
		if err := reg.WriteExpvar(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if got := expvar(t, reg)["sched.submitted"]; got != n {
		t.Errorf("sched.submitted = %v, want %d", got, n)
	}
}

func TestBrokerInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	var conns []Conn
	for _, n := range []string{"a", "b"} {
		conns = append(conns, LocalConn{Site: instrTestSite(t, n)})
	}
	b, err := NewBroker(BrokerConfig{Registry: reg}, conns...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CoAllocate(0, Request{ID: 1, Duration: period.Hour, Servers: 12}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CoAllocate(0, Request{ID: 2, Duration: period.Hour, Servers: 999}); err == nil {
		t.Fatal("want rejection for oversized request")
	}
	if v := reg.Counter("broker.requests").Value(); v != 2 {
		t.Errorf("broker.requests = %d, want 2", v)
	}
	if v := reg.Counter("broker.granted").Value(); v != 1 {
		t.Errorf("broker.granted = %d, want 1", v)
	}
	if v := reg.Counter("broker.rejected").Value(); v != 1 {
		t.Errorf("broker.rejected = %d, want 1", v)
	}
	if reg.Histogram("broker.window.latency").Count() == 0 {
		t.Error("window latency histogram empty")
	}
	// The granted request's trace holds one prepare and one commit per site.
	var spans = map[string]int{}
	for _, tr := range b.Recorder().Traces(obs.TraceQuery{}) {
		if tr.Err {
			continue
		}
		for _, sp := range tr.Spans {
			spans[sp.Name]++
		}
	}
	if spans["broker.prepare"] != 2 || spans["broker.commit"] != 2 {
		t.Errorf("granted trace spans = %v (want 2 prepares, 2 commits)", spans)
	}
}

// attr returns the value of the span attribute named key.
func attr(sp obs.Span, key string) (slog.Value, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return slog.Value{}, false
}

// TestRefusedCoAllocationExplained: why a co-allocation was refused, and
// after how many windows, is read back from the broker's flight recorder.
func TestRefusedCoAllocationExplained(t *testing.T) {
	b, err := NewBroker(BrokerConfig{MaxAttempts: 3},
		LocalConn{Site: instrTestSite(t, "a")}, LocalConn{Site: instrTestSite(t, "b")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CoAllocate(0, Request{ID: 7, Duration: period.Hour, Servers: 99}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	traces := b.Recorder().Traces(obs.TraceQuery{ErrorsOnly: true})
	if len(traces) != 1 || traces[0].Root != "broker.coallocate" {
		t.Fatalf("errored traces = %+v, want one broker.coallocate", traces)
	}
	root := traces[0].Spans[0]
	if v, ok := attr(root, "reason"); !ok || v.String() != "no window with sufficient capacity" {
		t.Errorf("reason = %v (present %v)", v, ok)
	}
	if v, ok := attr(root, "attempts"); !ok || v.Int64() != 3 {
		t.Errorf("attempts = %v (present %v), want 3", v, ok)
	}
	if v, ok := attr(root, "job"); !ok || v.Int64() != 7 {
		t.Errorf("job = %v (present %v), want 7", v, ok)
	}
	if root.Err == "" {
		t.Error("root span of a refused request carries no error")
	}
}
