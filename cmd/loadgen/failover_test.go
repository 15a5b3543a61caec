package main

import (
	"testing"
	"time"
)

// TestRunFailoverPhase runs both phases of -mode failover on a small
// replicated site and pins what the benchmark claims: undisturbed, every
// request is granted (capacity never binds, the breaker never trips); with
// the primary cut at half time, the standby is promoted once, recovery
// takes measurable time, and no acknowledged grant is lost.
func TestRunFailoverPhase(t *testing.T) {
	const (
		servers  = 16
		slotSize = 900
		slots    = 96
		clients  = 4
	)
	dur := time.Second

	// The steady phase gets a generous deadline so a loaded test host
	// cannot trip the breaker; the storm phase a short one, so the breaker
	// opens well inside the half phase left after the cut.
	steady, err := runFailoverPhase(servers, slotSize, slots, clients, dur, 2*time.Second, 1, false)
	if err != nil {
		t.Fatalf("steady phase: %v", err)
	}
	if steady.Grants == 0 {
		t.Fatalf("steady phase granted nothing: %+v", steady)
	}
	if steady.Errors != 0 || steady.Refused != 0 || steady.Failovers != 0 || steady.LostAcked != 0 {
		t.Errorf("steady phase: want 0 errors, 0 refusals, 0 failovers, 0 lost; got %+v", steady)
	}

	storm, err := runFailoverPhase(servers, slotSize, slots, clients, dur, 100*time.Millisecond, 1, true)
	if err != nil {
		t.Fatalf("storm phase: %v", err)
	}
	if storm.Failovers != 1 || storm.LostAcked != 0 || storm.Refused != 0 {
		t.Errorf("storm phase: want 1 failover, 0 lost, 0 refusals; got %+v", storm)
	}
	if storm.RecoveryMillis <= 0 {
		t.Errorf("storm phase: recovery %.3fms, want > 0", storm.RecoveryMillis)
	}
}
