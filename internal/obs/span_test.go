package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeParentsAndFinalizes(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	root := rec.StartSpan("broker.coallocate", slog.Int("job", 7))
	attempt := root.StartChild("broker.attempt", slog.Int("attempt", 1))
	probe := attempt.StartChild("broker.probe", slog.String("site", "a"))
	probe.End()
	attempt.End()
	root.End()

	traces := rec.Traces(TraceQuery{})
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Root != "broker.coallocate" || tr.Err || tr.Remote {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	rootSp, attSp, probeSp := tr.Spans[0], tr.Spans[1], tr.Spans[2]
	if rootSp.Parent != 0 {
		t.Fatalf("root has parent %x", rootSp.Parent)
	}
	if attSp.Parent != rootSp.SpanID || probeSp.Parent != attSp.SpanID {
		t.Fatalf("parent chain broken: %x->%x->%x", rootSp.SpanID, attSp.Parent, probeSp.Parent)
	}
	for _, sp := range tr.Spans {
		if sp.TraceID != tr.TraceID {
			t.Fatalf("span %q has trace %x, want %x", sp.Name, sp.TraceID, tr.TraceID)
		}
		if sp.End.IsZero() {
			t.Fatalf("span %q not finalized", sp.Name)
		}
	}
}

func TestSpanFailMarksTraceErrored(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	root := rec.StartSpan("r")
	child := root.StartChild("c")
	child.Fail(errors.New("site hung"))
	child.End()
	root.End()
	traces := rec.Traces(TraceQuery{ErrorsOnly: true})
	if len(traces) != 1 {
		t.Fatalf("errored trace not retained: %d", len(traces))
	}
	if traces[0].Spans[1].Err != "site hung" {
		t.Fatalf("child err = %q", traces[0].Spans[1].Err)
	}
}

func TestRootEndClosesStragglers(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	root := rec.StartSpan("r")
	open := root.StartChild("abandoned")
	root.End()
	// Straggler End after finalize must not double-record or panic.
	open.End()
	open.Annotate(slog.Bool("late", true))
	if open.StartChild("too-late") != nil {
		t.Fatal("child started after finalize")
	}
	traces := rec.Traces(TraceQuery{})
	if len(traces) != 1 || len(traces[0].Spans) != 2 {
		t.Fatalf("traces = %+v", traces)
	}
	if traces[0].Spans[1].End.IsZero() {
		t.Fatal("straggler span left unfinished in the recorded trace")
	}
	if len(traces[0].Spans[1].Attrs) != 0 {
		t.Fatal("late Annotate mutated the recorded trace")
	}
}

func TestNilSpanSafety(t *testing.T) {
	var a *ActiveSpan
	if a.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if a.TraceID() != 0 {
		t.Fatal("nil span has a trace ID")
	}
	child := a.StartChild("x")
	if child != nil {
		t.Fatal("nil span spawned a child")
	}
	child.Annotate(slog.Int("k", 1))
	child.Fail(errors.New("x"))
	child.Record("y", time.Now(), time.Now())
	child.End()

	var rec *Recorder
	if rec.StartSpan("x") != nil {
		t.Fatal("nil recorder started a span")
	}
	if rec.Traces(TraceQuery{}) != nil || rec.Len() != 0 {
		t.Fatal("nil recorder holds traces")
	}
}

func TestStartRemoteChildRequiresValidParent(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	if sp := rec.StartRemoteChild(SpanContext{}, "site.probe"); sp != nil {
		t.Fatal("remote child started from the zero context")
	}
	parent := SpanContext{TraceID: 0xabc, SpanID: 0xdef}
	sp := rec.StartRemoteChild(parent, "site.probe")
	sp.Record("site.view.lookup", time.Now(), time.Now())
	sp.End()
	traces := rec.Traces(TraceQuery{})
	if len(traces) != 1 {
		t.Fatalf("fragment not recorded: %d", len(traces))
	}
	tr := traces[0]
	if !tr.Remote {
		t.Fatal("fragment not marked remote")
	}
	if tr.TraceID != parent.TraceID {
		t.Fatalf("fragment trace = %x, want caller's %x", tr.TraceID, parent.TraceID)
	}
	if tr.Spans[0].Parent != parent.SpanID {
		t.Fatalf("fragment root parent = %x, want remote span %x", tr.Spans[0].Parent, parent.SpanID)
	}
}

func TestChildContextRecordAsPairsLeafSpan(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	root := rec.StartSpan("broker.probe_all")
	pc := root.ChildContext()
	if !pc.Valid() {
		t.Fatal("ChildContext on a live span is invalid")
	}
	t0 := time.Now()
	root.RecordAs(pc, "broker.probe", t0, t0.Add(time.Millisecond), errors.New("breaker open"),
		slog.String("site", "a"))
	root.RecordAs(SpanContext{}, "ignored", t0, t0, nil)
	root.End()

	traces := rec.Traces(TraceQuery{})
	if len(traces) != 1 || len(traces[0].Spans) != 2 {
		t.Fatalf("traces = %+v", traces)
	}
	sp := traces[0].Spans[1]
	if sp.SpanID != pc.SpanID || sp.TraceID != pc.TraceID {
		t.Fatalf("recorded span identity %x/%x, want reserved %x/%x",
			sp.TraceID, sp.SpanID, pc.TraceID, pc.SpanID)
	}
	if sp.Parent != traces[0].Spans[0].SpanID {
		t.Fatalf("leaf parent = %x, want root %x", sp.Parent, traces[0].Spans[0].SpanID)
	}
	if sp.Err != "breaker open" || !traces[0].Err {
		t.Fatalf("RecordAs error not recorded: span=%+v trace.Err=%v", sp, traces[0].Err)
	}
}

func TestRecordRemoteSpanAdmitsSingleSpanFragment(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	t0 := time.Now()
	rec.RecordRemoteSpan(SpanContext{}, "ignored", t0, t0)
	var nilRec *Recorder
	nilRec.RecordRemoteSpan(SpanContext{TraceID: 1, SpanID: 2}, "ignored", t0, t0)

	parent := SpanContext{TraceID: 0xabc, SpanID: 0xdef}
	rec.RecordRemoteSpan(parent, "site.probe", t0, t0.Add(time.Millisecond), slog.Uint64("epoch", 3))
	traces := rec.Traces(TraceQuery{})
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1 (zero/nil calls must be ignored)", len(traces))
	}
	tr := traces[0]
	if !tr.Remote || tr.Err || tr.Root != "site.probe" || tr.TraceID != parent.TraceID {
		t.Fatalf("fragment header = %+v", tr)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Parent != parent.SpanID {
		t.Fatalf("fragment spans = %+v, want one span under %x", tr.Spans, parent.SpanID)
	}
	if tr.Duration != time.Millisecond {
		t.Fatalf("fragment duration = %v, want 1ms", tr.Duration)
	}

	// A slow fragment files under the slow class like any other trace.
	rec.RecordRemoteSpan(parent, "site.probe", t0, t0.Add(DefaultSlowThreshold))
	if st := rec.Stats(); st.Slow != 1 || st.Normal != 1 {
		t.Fatalf("stats = %+v, want one normal and one slow", st)
	}
}

// TestRecorderBiasedRetention is the retention-policy pin: a flood of
// healthy traces evicts only other healthy traces; the errored and slow
// traces recorded before the flood survive it.
func TestRecorderBiasedRetention(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 16, SlowThreshold: 10 * time.Millisecond})
	now := time.Unix(1000, 0)
	rec.setClock(func() time.Time { return now })

	mk := func(name string, d time.Duration, fail bool) {
		sp := rec.StartSpan(name)
		if fail {
			sp.Fail(errors.New("boom"))
		}
		now = now.Add(d)
		sp.End()
	}
	mk("errored", time.Millisecond, true)
	mk("slow", 50*time.Millisecond, false)
	for i := 0; i < 200; i++ {
		mk("healthy", time.Millisecond, false)
	}

	st := rec.Stats()
	if st.Seen != 202 {
		t.Fatalf("seen = %d", st.Seen)
	}
	if st.Retained > 16 {
		t.Fatalf("retained %d traces, cap 16", st.Retained)
	}
	if st.Errored != 1 || st.Slow != 1 {
		t.Fatalf("biased classes lost traces: %+v", st)
	}
	if len(rec.Traces(TraceQuery{ErrorsOnly: true})) != 1 {
		t.Fatal("errored trace evicted by healthy flood")
	}
	if got := rec.Traces(TraceQuery{MinDuration: 10 * time.Millisecond}); len(got) != 1 || got[0].Root != "slow" {
		t.Fatalf("slow-tail trace evicted by healthy flood: %+v", got)
	}
}

func TestRecorderRingEvictsOldestWithinClass(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 8}) // normal class: 4
	now := time.Unix(0, 0)
	rec.setClock(func() time.Time { return now })
	for i := 0; i < 10; i++ {
		sp := rec.StartSpan(fmt.Sprintf("t%d", i))
		now = now.Add(time.Microsecond)
		sp.End()
	}
	got := rec.Traces(TraceQuery{})
	if len(got) != 4 {
		t.Fatalf("normal class holds %d, want 4", len(got))
	}
	// Newest first: t9..t6.
	for i, want := range []string{"t9", "t8", "t7", "t6"} {
		if got[i].Root != want {
			t.Fatalf("traces[%d] = %s, want %s (oldest must evict first)", i, got[i].Root, want)
		}
	}
}

func TestRecorderQueryFilters(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 32, SlowThreshold: time.Hour})
	now := time.Unix(0, 0)
	rec.setClock(func() time.Time { return now })
	var ids []uint64
	for i := 0; i < 5; i++ {
		sp := rec.StartSpan("q")
		ids = append(ids, sp.TraceID())
		now = now.Add(time.Duration(i+1) * time.Millisecond)
		sp.End()
	}
	if got := rec.Traces(TraceQuery{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit ignored: %d", len(got))
	}
	if got := rec.Traces(TraceQuery{MinDuration: 4 * time.Millisecond}); len(got) != 2 {
		t.Fatalf("min-duration filter: %d, want 2", len(got))
	}
	got := rec.Traces(TraceQuery{TraceID: ids[3]})
	if len(got) != 1 || got[0].TraceID != ids[3] {
		t.Fatalf("trace-id filter: %+v", got)
	}
}

func TestRecorderHandlerServesFilteredJSON(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 16, SlowThreshold: time.Minute})
	now := time.Unix(0, 0)
	rec.setClock(func() time.Time { return now })

	ok := rec.StartSpan("fast")
	now = now.Add(time.Millisecond)
	ok.End()
	bad := rec.StartSpan("broken")
	bad.Fail(errors.New("nope"))
	now = now.Add(30 * time.Millisecond)
	bad.End()

	h := rec.Handler()
	get := func(url string) []TraceJSON {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s = %d: %s", url, w.Code, w.Body)
		}
		var out []TraceJSON
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
		return out
	}

	if all := get("/debug/traces"); len(all) != 2 {
		t.Fatalf("unfiltered dump = %d traces", len(all))
	}
	errs := get("/debug/traces?error=1")
	if len(errs) != 1 || errs[0].Root != "broken" || !errs[0].Errored {
		t.Fatalf("?error= filter: %+v", errs)
	}
	slow := get("/debug/traces?slow=10ms")
	if len(slow) != 1 || slow[0].DurationUS != 30000 {
		t.Fatalf("?slow= filter: %+v", slow)
	}
	byID := get("/debug/traces?id=" + errs[0].TraceID)
	if len(byID) != 1 || byID[0].TraceID != errs[0].TraceID {
		t.Fatalf("?id= filter: %+v", byID)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?slow=banana", nil))
	if w.Code != 400 {
		t.Fatalf("bad slow= accepted: %d", w.Code)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	id := uint64(0xdeadbeef12345678)
	s := FormatTraceID(id)
	if len(s) != 16 {
		t.Fatalf("FormatTraceID = %q, want fixed 16 chars", s)
	}
	back, err := ParseTraceID(s)
	if err != nil || back != id {
		t.Fatalf("round trip = %x, %v", back, err)
	}
}

func TestHistogramExemplarLinksQuantileToTrace(t *testing.T) {
	h := NewHistogram(time.Minute, 4)
	base := time.Unix(0, 0)
	h.setClock(func() time.Time { return base })
	for i := 0; i < 95; i++ {
		h.ObserveTrace(time.Millisecond, 100) // fast traffic, trace 100
	}
	for i := 0; i < 5; i++ {
		h.ObserveTrace(80*time.Millisecond, 777) // slow tail, trace 777
	}
	s := h.Snapshot()
	if s.P99Trace != 777 {
		t.Fatalf("p99 exemplar = %d, want the slow trace 777", s.P99Trace)
	}
	if s.P50Trace != 100 {
		t.Fatalf("p50 exemplar = %d, want the fast trace 100", s.P50Trace)
	}
}

func TestHistogramExemplarOmittedWhenUntraced(t *testing.T) {
	h := NewHistogram(time.Minute, 4)
	h.Observe(time.Millisecond)
	if s := h.Snapshot(); s.P99Trace != 0 || s.P50Trace != 0 {
		t.Fatalf("untraced histogram reported exemplars: %+v", s)
	}
}

func TestRegistryJSONRendersExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("req.latency")
	h.ObserveTrace(5*time.Millisecond, 0xabcd)
	var b strings.Builder
	if err := reg.WriteExpvar(&b); err != nil {
		t.Fatal(err)
	}
	var obj map[string]map[string]any
	if err := json.Unmarshal([]byte(b.String()), &obj); err != nil {
		t.Fatal(err)
	}
	m := obj["req.latency"]
	want := FormatTraceID(0xabcd)
	if m["p99_trace"] != want {
		t.Fatalf("p99_trace = %v, want %s (json: %s)", m["p99_trace"], want, b.String())
	}
}
