package main

import "testing"

// TestDESWrongValueFailsRun checks that one lookup answered with a wrong
// value makes a des-churn run incorrect, while lookups that find nothing
// do not.
func TestDESWrongValueFailsRun(t *testing.T) {
	r := newReport()
	(&desRep{lookups: tally{attempted: 100}, found: 90}).check(r)
	if len(r.errs) != 0 {
		t.Fatalf("no wrong value, yet the run failed: %v", r.errs)
	}
	(&desRep{lookups: tally{attempted: 100, failed: 1}, found: 90}).check(r)
	if len(r.errs) != 1 {
		t.Fatalf("one wrong value gave %d failed checks, want 1", len(r.errs))
	}
}
