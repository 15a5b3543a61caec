package grid

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// ErrCircuitOpen marks a site the broker is deliberately not talking to:
// its circuit breaker is open after consecutive failures and its cooldown
// has not elapsed. Probes against such a site fail instantly instead of
// burning a timeout.
var ErrCircuitOpen = errors.New("grid: site circuit open")

// ErrAllSitesUnreachable is returned by CoAllocate when a probe round
// reached no site at all. It is an outage signal, distinct from
// ErrNoCapacity: retrying the window Δt later cannot help when nothing
// answers, so the broker fails fast instead of walking the retry ladder.
var ErrAllSitesUnreachable = errors.New("grid: no site reachable")

// isTimeoutErr classifies an error as a deadline expiry without importing
// the wire package (which imports grid): wire's call timeouts satisfy
// errors.Is(err, os.ErrDeadlineExceeded), and raw net deadlines implement
// net.Error with Timeout() true.
func isTimeoutErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// breaker states. The machine is the classic three-state circuit breaker:
//
//	closed ──(threshold consecutive failures)──▶ open
//	open ──(cooldown elapsed)──▶ half-open (one trial admitted)
//	half-open ──(trial succeeds)──▶ closed
//	half-open ──(trial fails)──▶ open again, cooldown doubled (capped)
//
// Cooldowns carry jitter so a broker federating many sites does not retry
// them in lockstep after a common outage.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// siteHealth tracks one site's failure state. All methods take the current
// wall-clock time from the caller so tests can drive the machine with a
// fake clock.
type siteHealth struct {
	mu        sync.Mutex
	state     int
	fails     int // consecutive failures while closed
	openUntil time.Time
	cooldown  time.Duration // current open period, pre-jitter
	probing   bool          // a half-open trial is in flight
}

// allow reports whether a request may be sent to the site. An open circuit
// whose cooldown has elapsed admits exactly one caller as the half-open
// trial; everyone else keeps failing fast until the trial resolves.
func (h *siteHealth) allow(now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case breakerOpen:
		if now.Before(h.openUntil) {
			return false
		}
		h.state = breakerHalfOpen
		h.probing = true
		return true
	case breakerHalfOpen:
		if h.probing {
			return false
		}
		h.probing = true
		return true
	}
	return true
}

// success records a successful interaction. It reports whether the circuit
// closed as a result (it was open or half-open before), so the broker can
// count a recovery exactly once.
func (h *siteHealth) success() (recovered bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	recovered = h.state != breakerClosed
	h.state = breakerClosed
	h.fails = 0
	h.probing = false
	h.cooldown = 0
	return recovered
}

// failure records a failed interaction under the given threshold and
// cooldown policy; jitter perturbs the cooldown. It reports whether the
// circuit opened (or re-opened) as a result.
func (h *siteHealth) failure(now time.Time, threshold int, base, max time.Duration, jitter func(time.Duration) time.Duration) (opened bool) {
	if threshold <= 0 {
		return false // breaker disabled
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case breakerHalfOpen:
		// The trial failed: back off harder.
		h.probing = false
		h.cooldown *= 2
		if h.cooldown > max {
			h.cooldown = max
		}
		h.state = breakerOpen
		h.openUntil = now.Add(jitter(h.cooldown))
		return true
	case breakerClosed:
		h.fails++
		if h.fails >= threshold {
			h.state = breakerOpen
			h.cooldown = base
			h.openUntil = now.Add(jitter(base))
			return true
		}
	}
	return false
}

// snapshot returns the current state for debugging/stats. openUntil is
// meaningful only while the state is open.
func (h *siteHealth) snapshot() (state int, fails int, openUntil time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.fails, h.openUntil
}

// SiteHealth describes one site's breaker state for operators.
type SiteHealth struct {
	Site     string
	State    string // "closed", "open", or "half-open"
	Failures int    // consecutive failures while closed
	// Cooldown is how much longer an open circuit stays closed to traffic
	// before the next half-open trial is admitted; zero unless State is
	// "open".
	Cooldown time.Duration
}

// breakerStateName renders a breaker state.
func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// feed records in site i's breaker the outcome of a call this goroutine made
// to it. Success closes the breaker if it was open; failure does the timeout
// accounting, the consecutive-failure tracking, and the open transition. Each
// transition has its counter.
func (b *Broker) feed(i int, err error) {
	if err == nil {
		if b.health[i].success() {
			b.m.inc(cBreakerClose)
		}
		return
	}
	if isTimeoutErr(err) {
		b.m.inc(cRPCTimeouts)
	}
	if b.health[i].failure(b.clock(), b.cfg.BreakerThreshold, b.cfg.BreakerCooldown, b.cfg.BreakerCooldownMax, b.jitter) {
		b.m.inc(cBreakerOpen)
		b.tryFailover(i, err)
	}
}

// tryFailover promotes a standby when a failover-capable connection's
// breaker sticks open — the broker's dead-primary detector. failure returns
// true only on the closed→open transition, so exactly one caller per outage
// runs the promotion, and FailoverConn serializes internally besides.
// Synchronous on purpose: the call that opened the breaker has already
// failed, and the next round should find the promoted standby rather than
// race the promotion.
func (b *Broker) tryFailover(i int, cause error) {
	c := b.sites[i]
	fc, ok := c.(FailoverCapable)
	if !ok {
		return
	}
	if _, err := fc.Failover("breaker open: " + cause.Error()); err != nil {
		// No standby left (or promotion failed): the breaker stays open and
		// cools down like any plain outage.
		b.m.inc(cFailoverFailed)
		return
	}
	// The promoted standby is a different node under the same name: close
	// the breaker so the next round reaches it immediately, and drop every
	// cached answer learned from the old primary — its epochs are fenced
	// anyway, but there is no reason to wait for the epoch protocol to
	// retire them one probe at a time.
	b.health[i].success()
	b.dropCached(c.Name())
	b.m.inc(cFailovers)
}

// breakerOpenFor reports (and accounts) whether site i's circuit is open at
// now, failing the call fast instead of waiting out a timeout.
func (b *Broker) breakerOpenFor(i int, now time.Time) error {
	if !b.health[i].allow(now) {
		b.m.inc(cBreakerSkips)
		return fmt.Errorf("%s: %w", b.sites[i].Name(), ErrCircuitOpen)
	}
	return nil
}

// Health reports each site's breaker state in prepare order.
func (b *Broker) Health() []SiteHealth {
	now := b.clock()
	out := make([]SiteHealth, len(b.sites))
	for i, c := range b.sites {
		state, fails, openUntil := b.health[i].snapshot()
		out[i] = SiteHealth{Site: c.Name(), State: breakerStateName(state), Failures: fails}
		if state == breakerOpen {
			out[i].Cooldown = max(openUntil.Sub(now), 0)
		}
	}
	return out
}
