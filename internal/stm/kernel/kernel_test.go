package kernel

import (
	"errors"
	"testing"

	"swisstm/internal/stm"
)

// TestAbortPath: the record helpers keep stm.Stats' partitions — every
// abort delivered once, by unwinding or by a checked return — and end the
// logical transaction where a commit or a body error ends it. A foreign
// panic is no rollback: Unwind neither claims nor counts it. (The engines'
// abort-path suites check that it propagates, not what it counts.)
func TestAbortPath(t *testing.T) {
	th := NewThread("kernel", 3, 1, nil)
	th.Aborted(4)
	if !th.Unwind(stm.SignalRollback) {
		t.Fatal("Unwind refused the rollback signal")
	}
	th.Backoff()
	if th.Unwind(errors.New("foreign")) {
		t.Fatal("Unwind claimed a foreign panic")
	}
	th.Aborted(2)
	th.AbortedUser()
	if th.Succ != 0 {
		t.Errorf("Succ = %d after a body error, want 0", th.Succ)
	}
	th.Backoff()
	th.Committed(5, 1)
	th.CommittedRO(6)
	s := th.Stats()
	want := stm.Stats{Commits: 2, ROCommits: 1, Aborts: 2, AbortsUser: 1, AbortsUnwound: 1, AbortsReturned: 1, ReadsLogged: 17}
	if s != want || th.Succ != 0 {
		t.Errorf("stats %+v, Succ %d;\nwant %+v, Succ 0", s, th.Succ, want)
	}
}
