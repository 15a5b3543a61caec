package grid

// Tests for where a probe round runs: on the caller while every site's last
// round trip was quick, on fanOut's goroutines otherwise (probe.go). The
// broker times a round trip on its own clock, so all but the wall-clock test
// run on a fake one, where a round trip takes what the conn says it takes and
// nothing else — the race detector's slowdown included.

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"coalloc/internal/period"
)

// goid names the calling goroutine, from the header of its stack trace.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// onCaller runs one fan-out round of legs that wait for each other and
// reports whether every leg ran on the calling goroutine. Overlapped legs meet
// at once, so the caller's goroutine gets one of them and fresh goroutines the
// rest; on the caller no leg can meet the next, and each gives up after wait.
func onCaller(b *Broker) bool {
	const wait = 20 * time.Millisecond
	me, n := goid(), int32(len(b.sites))
	var arrived, elsewhere atomic.Int32
	b.fanOut(func(int) {
		if goid() != me {
			elsewhere.Add(1)
		}
		arrived.Add(1)
		for t0 := time.Now(); arrived.Load() < n && time.Since(t0) < wait; {
			runtime.Gosched()
		}
	})
	return elsewhere.Load() == 0
}

// slowConn forwards to its Conn — the bare interface, as a decorator that
// knows none of the optional ones would — after delay has passed: on clock
// when it has one, asleep otherwise.
type slowConn struct {
	Conn
	delay atomic.Int64 // time.Duration
	clock *testClock
}

func (c *slowConn) Probe(now, start, end period.Time) (ProbeResult, error) {
	if d := time.Duration(c.delay.Load()); d > 0 && c.clock != nil {
		c.clock.Advance(d)
	} else if d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Probe(now, start, end)
}

// slowFederation is three four-server sites behind slowConns and a broker
// over them, all on clock (nil: the wall clock).
func slowFederation(t *testing.T, clock *testClock) ([]*slowConn, *Broker) {
	t.Helper()
	conns := make([]*slowConn, 3)
	asConns := make([]Conn, 3)
	for i := range conns {
		conns[i] = &slowConn{Conn: LocalConn{Site: mustSite(t, string(rune('a'+i)), 4)}, clock: clock}
		asConns[i] = conns[i]
	}
	b := mustBrokerConns(t, BrokerConfig{}, asConns...)
	if clock != nil {
		b.clock = clock.Now
	}
	return conns, b
}

// TestFanOutQuickRoundRunsOnCaller: a broker over LocalConns, and over
// LocalConns behind a wrapper that forwards the bare Conn, overlaps its first
// round — it knows nothing yet — and starts no goroutine after it, even
// though every probe is ahead of its site's clock.
func TestFanOutQuickRoundRunsOnCaller(t *testing.T) {
	clock := &testClock{now: time.Unix(0, 0)}
	_, plain := mustFederation(t, BrokerConfig{}, 3, 4)
	plain.clock = clock.Now
	_, wrapped := slowFederation(t, clock)
	for name, b := range map[string]*Broker{"LocalConn": plain, "wrapped": wrapped} {
		if onCaller(b) {
			t.Fatalf("%s: the first round ran on the caller before any round trip was timed", name)
		}
		now := period.Time(0)
		for round := 1; round <= 20; round++ {
			before := runtime.NumGoroutine()
			now += period.Time(20 * period.Minute) // more than a slot
			for i, av := range b.ProbeAll(now, now+period.Time(period.Hour), now+period.Time(2*period.Hour)) {
				if av.Err != nil || av.Available != 4 {
					t.Fatalf("%s round %d site %d: %+v", name, round, i, av)
				}
			}
			if got := runtime.NumGoroutine(); round > 1 && got > before {
				t.Fatalf("%s round %d: %d goroutines, %d before it", name, round, got, before)
			}
			if (round == 1 || round == 20) && !onCaller(b) {
				t.Fatalf("%s: the round after round %d would not run on the caller", name, round)
			}
		}
	}
}

// TestFanOutSlowSitesOverlap: three sites that each take a millisecond of
// wall clock to answer finish a round in about one leg, round after round —
// a slow answer never moves the round onto the caller.
func TestFanOutSlowSitesOverlap(t *testing.T) {
	const leg = time.Millisecond
	conns, b := slowFederation(t, nil)
	for _, c := range conns {
		c.delay.Store(int64(leg))
	}
	best := time.Hour
	for round := 1; round <= 5; round++ {
		t0 := time.Now()
		b.ProbeAll(0, period.Time(period.Hour), period.Time(2*period.Hour))
		best = min(best, time.Since(t0))
		if onCaller(b) {
			t.Fatalf("the round after slow round %d would run on the caller", round)
		}
	}
	if best >= 2*leg {
		t.Fatalf("best of 5 three-site rounds took %v with %v legs: they did not overlap", best, leg)
	}
}

// TestFanOutFollowsTheLastRoundTrip: one site turning slow puts the next
// round back on goroutines, and one quick answer from it brings the round
// back to the caller.
func TestFanOutFollowsTheLastRoundTrip(t *testing.T) {
	conns, b := slowFederation(t, &testClock{now: time.Unix(0, 0)})
	now := period.Time(0)
	round := func() {
		now++
		b.ProbeAll(now, now+period.Time(period.Hour), now+period.Time(2*period.Hour))
	}
	round()
	if !onCaller(b) {
		t.Fatal("three quick answers and the next round would not run on the caller")
	}
	conns[1].delay.Store(int64(time.Millisecond))
	round() // on the caller; times site 1's slow answer
	if onCaller(b) {
		t.Fatal("the round after a slow answer would run on the caller")
	}
	round() // overlapped; site 1 is still slow
	if onCaller(b) {
		t.Fatal("the second round after slow answers would run on the caller")
	}
	conns[1].delay.Store(0)
	round() // overlapped; times site 1's quick answer
	if !onCaller(b) {
		t.Fatal("site 1 answered quickly again and the next round would not run on the caller")
	}
}
