package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

func TestDebugMux(t *testing.T) {
	site, err := grid.NewSite("debug-site", core.Config{
		Servers:  8,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	site.Instrument(reg)
	site.SetRecorder(obs.NewRecorder(obs.RecorderConfig{}))
	tc := obs.SpanContext{TraceID: 0xfeed, SpanID: 0xbeef}
	if _, err := site.PrepareTraced(tc, 0, "h1", 0, period.Time(period.Hour), 4, period.Hour); err != nil {
		t.Fatal(err)
	}
	if err := site.Commit(0, "h1"); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(debugMux(site, reg))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Errorf("/metrics = %d", code)
	}
	for _, want := range []string{"# TYPE site_committed gauge", "site_committed 1", "sched_accepted 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	code, body = get("/statusz")
	if code != 200 {
		t.Errorf("/statusz = %d", code)
	}
	for _, want := range []string{"site-site", "committed=1", "submitted=1"} {
		if !strings.Contains(body, strings.ReplaceAll(want, "site-site", "debug-site")) {
			t.Errorf("/statusz missing %q in:\n%s", want, body)
		}
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	code, body = get("/debug/traces")
	if code != 200 {
		t.Errorf("/debug/traces = %d", code)
	}
	for _, want := range []string{`"site.prepare"`, `"000000000000feed"`, `"remote": true`} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/traces missing %s in:\n%s", want, body)
		}
	}
	// The untraced commit recorded nothing; only the traced prepare is there.
	if got := strings.Count(body, `"root"`); got != 1 {
		t.Errorf("/debug/traces holds %d traces, want 1:\n%s", got, body)
	}
	if code, body := get("/debug/traces?id=zzz"); code != 400 {
		t.Errorf("/debug/traces?id=zzz = %d %q, want 400", code, body)
	}
}
