package mpi

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"bruckv/internal/buffer"
)

// blockedPair is a (rank, src, tag) expectation against the report.
type blockedPair struct {
	rank, src, tag int
}

// assertReport checks that the run error carries a DeadlockError whose
// blocked set is exactly wantRanks and contains every expected pending
// (src, tag) pair.
func assertReport(t *testing.T, err error, wantRanks []int, wantPairs []blockedPair) *DeadlockError {
	t.Helper()
	if err == nil {
		t.Fatal("expected an abort error, got nil")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error does not carry a *DeadlockError: %v", err)
	}
	got := de.BlockedRanks()
	if len(got) != len(wantRanks) {
		t.Fatalf("blocked ranks = %v, want %v\nreport:\n%s", got, wantRanks, de)
	}
	for i := range got {
		if got[i] != wantRanks[i] {
			t.Fatalf("blocked ranks = %v, want %v\nreport:\n%s", got, wantRanks, de)
		}
	}
	for _, wp := range wantPairs {
		found := false
		for _, br := range de.Blocked {
			if br.Rank != wp.rank {
				continue
			}
			for _, p := range br.Pending {
				if p.Src == wp.src && p.Tag == wp.tag {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("report missing rank %d pending (src=%d, tag=%d)\nreport:\n%s",
				wp.rank, wp.src, wp.tag, de)
		}
	}
	return de
}

// TestDeadlockReport runs a table of intentionally-deadlocking programs
// and asserts the per-rank report names the right ranks and (src, tag)
// pairs.
func TestDeadlockReport(t *testing.T) {
	cases := []struct {
		name      string
		size      int
		fn        func(p *Proc) error
		wantRanks []int
		wantPairs []blockedPair
	}{
		{
			// Rank 0 sends on tag 1; rank 1 listens on tag 2. Rank 0
			// finishes, rank 1 blocks forever.
			name: "mismatched tag",
			size: 2,
			fn: func(p *Proc) error {
				b := buffer.New(4)
				if p.Rank() == 0 {
					p.Send(1, 1, b)
					return nil
				}
				p.Recv(0, 2, b)
				return nil
			},
			wantRanks: []int{1},
			wantPairs: []blockedPair{{rank: 1, src: 0, tag: 2}},
		},
		{
			// Receive from self with no prior self-send: nothing can
			// ever match it.
			name: "recv from self without send",
			size: 3,
			fn: func(p *Proc) error {
				b := buffer.New(4)
				if p.Rank() == 0 {
					p.Recv(0, 9, b)
				}
				return nil
			},
			wantRanks: []int{0},
			wantPairs: []blockedPair{{rank: 0, src: 0, tag: 9}},
		},
		{
			// Circular blocking receives: every rank waits for its
			// successor before sending anything.
			name: "circular recv",
			size: 3,
			fn: func(p *Proc) error {
				b := buffer.New(4)
				next := (p.Rank() + 1) % 3
				p.Recv(next, 5, b)
				p.Send(next, 5, b)
				return nil
			},
			wantRanks: []int{0, 1, 2},
			wantPairs: []blockedPair{
				{rank: 0, src: 1, tag: 5},
				{rank: 1, src: 2, tag: 5},
				{rank: 2, src: 0, tag: 5},
			},
		},
		{
			// Waitall with a receive nobody will satisfy: the report
			// names the outstanding (src, tag) pairs of the Waitall.
			name: "waitall outstanding",
			size: 2,
			fn: func(p *Proc) error {
				b := buffer.New(4)
				if p.Rank() == 0 {
					p.Send(1, 3, b)
					return nil
				}
				reqs := []*Request{
					p.Irecv(0, 3, b),
					p.Irecv(0, 4, buffer.New(4)),
				}
				return p.Waitall(reqs)
			},
			wantRanks: []int{1},
			wantPairs: []blockedPair{{rank: 1, src: 0, tag: 4}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := zeroWorld(t, tc.size)
			err := w.Run(tc.fn)
			de := assertReport(t, err, tc.wantRanks, tc.wantPairs)
			if !strings.Contains(de.Reason, "deadlock") {
				t.Errorf("reason %q does not mention deadlock", de.Reason)
			}
			// The rendered report must name every blocked rank's op.
			for _, br := range de.Blocked {
				if br.Op != "Recv" && br.Op != "Waitall" {
					t.Errorf("rank %d: unexpected blocked op %q", br.Rank, br.Op)
				}
			}
		})
	}
}

// TestDeadlockReportStable asserts the report is deterministic: the
// same deadlocking program yields the same blocked set and pairs on
// every run.
func TestDeadlockReportStable(t *testing.T) {
	run := func() string {
		w := zeroWorld(t, 4)
		err := w.Run(func(p *Proc) error {
			b := buffer.New(4)
			p.Recv((p.Rank()+1)%4, 8, b)
			return nil
		})
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("no DeadlockError in %v", err)
		}
		return de.Error()
	}
	a := run()
	for i := 0; i < 3; i++ {
		if b := run(); a != b {
			t.Fatalf("deadlock report not stable:\n%s\nvs\n%s", a, b)
		}
	}
}

// TestDeadlineAbortsLivelock exercises the wall-clock watchdog on a
// hang the blocked-rank detector cannot see: two ranks ping-ponging
// messages forever are never simultaneously blocked.
func TestDeadlineAbortsLivelock(t *testing.T) {
	w, err := NewWorld(2, WithDeadline(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = w.Run(func(p *Proc) error {
		b := buffer.New(4)
		for {
			p.Send(1-p.Rank(), 1, b)
			p.Recv(1-p.Rank(), 1, b)
		}
	})
	if err == nil {
		t.Fatal("livelock terminated without error")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("no DeadlockError in %v", err)
	}
	if !strings.Contains(de.Reason, "deadline") {
		t.Errorf("reason %q does not mention the deadline", de.Reason)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("watchdog took %v to fire", elapsed)
	}
}

// TestDeadlineAbortsDeadlockWithReport is the acceptance scenario: a
// deliberately deadlocked run under WithDeadline terminates with a
// report naming every blocked rank and its pending (src, tag),
// whichever mechanism fires first.
func TestDeadlineAbortsDeadlockWithReport(t *testing.T) {
	w, err := NewWorld(4, WithDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *Proc) error {
		b := buffer.New(4)
		p.Recv((p.Rank()+1)%4, 42, b)
		return nil
	})
	assertReport(t, err, []int{0, 1, 2, 3}, []blockedPair{
		{rank: 0, src: 1, tag: 42},
		{rank: 1, src: 2, tag: 42},
		{rank: 2, src: 3, tag: 42},
		{rank: 3, src: 0, tag: 42},
	})
}

// TestDeadlineHarmlessOnHealthyRun arms the watchdog on a run that
// finishes well within the bound and on a repeat Run of the same world,
// making sure a stale timer never aborts a later run.
func TestDeadlineHarmlessOnHealthyRun(t *testing.T) {
	w, err := NewWorld(4, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Run(ringExchange); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestNegativeTagInReport checks that the reserved collective tag space
// (tags below -1000) survives the boxKey round trip into the report.
func TestNegativeTagInReport(t *testing.T) {
	w := zeroWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Barrier() // rank 1 never enters: blocks on a reserved tag
		}
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("no DeadlockError in %v", err)
	}
	found := false
	for _, br := range de.Blocked {
		for _, pr := range br.Pending {
			if pr.Tag < -1000 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("report lost the negative collective tag:\n%s", de)
	}
}

// TestSendUncountsSleepingReceiver pins the exact accounting behind the
// deadlock verdict: once Send returns, the receiver it reached no longer
// counts as asleep, even if its goroutine has not been scheduled yet. A
// detector that counted it until it ran would see "every rank blocked"
// when the sender then blocks, and only timing could tell it otherwise.
func TestSendUncountsSleepingReceiver(t *testing.T) {
	w := zeroWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		b := buffer.New(8)
		if p.Rank() == 0 {
			p.Recv(1, 1, b)
			p.Send(1, 2, b)
			return nil
		}
		peer := p.w.procs[0]
		for {
			peer.box.mu.Lock()
			asleep := peer.box.sleeping
			peer.box.mu.Unlock()
			if asleep {
				break
			}
			runtime.Gosched()
		}
		p.Send(0, 1, b)
		if asleep := w.idle.Load() & (idleFinished - 1); asleep != 0 {
			return errors.New("receiver still counted as asleep after Send returned")
		}
		p.Recv(0, 2, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoFalseDeadlockOversubscribed runs blocking exchanges with every
// rank goroutine sharing one processor, the setting in which woken
// ranks wait longest to be scheduled. A healthy exchange must never be
// reported as a deadlock, however long a wake-up takes.
func TestNoFalseDeadlockOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := zeroWorld(t, 32)
	for i := 0; i < 100; i++ {
		err := w.Run(func(p *Proc) error {
			b := buffer.New(8)
			n := p.Size()
			for s := 1; s < n; s <<= 1 {
				p.SendRecv((p.Rank()+s)%n, s, b, (p.Rank()-s+n)%n, s, b)
			}
			p.Barrier()
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
