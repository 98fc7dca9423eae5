package bruckv

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Public-API contract tests: the typed error sentinels, the algorithm
// enumeration helpers and their ParseAlgorithm round trip, and the
// communicator-derivation surface (Split, Group, GlobalRank, CommID,
// RunContext, Close).

// algorithmNamesGolden pins the exact public algorithm vocabulary: the
// enum order of Algorithms() and the names String prints /
// ParseAlgorithm accepts. Growing the registry means extending this
// list — renaming or reordering breaks released callers and CLI flags.
var algorithmNamesGolden = []string{
	"auto",
	"spreadout",
	"vendor",
	"padded-bruck",
	"padded-alltoall",
	"two-phase",
	"sloav",
	"two-phase-r4",
	"two-phase-r8",
	"hierarchical",
}

var uniformNamesGolden = []string{
	"zerorotation",
	"basic",
	"modified",
	"basic-dt",
	"modified-dt",
	"zerocopy-dt",
	"pairwise",
	"vendor-alltoall",
}

func TestAlgorithmsGoldenAndParseRoundTrip(t *testing.T) {
	algs := Algorithms()
	if len(algs) != len(algorithmNamesGolden) {
		t.Fatalf("Algorithms() has %d entries, golden list %d", len(algs), len(algorithmNamesGolden))
	}
	for i, a := range algs {
		if int(a) != i {
			t.Errorf("Algorithms()[%d] = %v, want enum value %d (list must be in enum order)", i, a, i)
		}
		if a.String() != algorithmNamesGolden[i] {
			t.Errorf("Algorithms()[%d].String() = %q, want %q", i, a.String(), algorithmNamesGolden[i])
		}
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v round-trip", a.String(), back, err, a)
		}
		// Parsing is case-insensitive.
		if back, err := ParseAlgorithm(strings.ToUpper(a.String())); err != nil || back != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", strings.ToUpper(a.String()), back, err, a)
		}
	}
	us := UniformAlgorithmList()
	if len(us) != len(uniformNamesGolden) {
		t.Fatalf("UniformAlgorithmList() has %d entries, golden list %d", len(us), len(uniformNamesGolden))
	}
	for i, u := range us {
		if int(u) != i || u.String() != uniformNamesGolden[i] {
			t.Errorf("UniformAlgorithmList()[%d] = %v (%q), want enum %d (%q)",
				i, u, u.String(), i, uniformNamesGolden[i])
		}
	}
}

func TestParseAlgorithmUnknownIsTyped(t *testing.T) {
	_, err := ParseAlgorithm("no-such-algorithm")
	if !errors.Is(err, ErrInvalidAlgorithm) {
		t.Errorf("ParseAlgorithm error %v is not ErrInvalidAlgorithm", err)
	}
}

func TestTypedErrorSentinels(t *testing.T) {
	// ErrInvalidAlgorithm from NewWorld and from per-call dispatch.
	if _, err := NewWorld(4, WithAlgorithm(Algorithm(99))); !errors.Is(err, ErrInvalidAlgorithm) {
		t.Errorf("NewWorld(bad algorithm) = %v, want ErrInvalidAlgorithm", err)
	}
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *Comm) error {
		counts := []int{1, 1, 1, 1}
		displs := []int{0, 1, 2, 3}
		buf := make([]byte, 4)
		return c.AlltoallvWith(Algorithm(-1), buf, counts, displs, buf, counts, displs)
	})
	if !errors.Is(err, ErrInvalidAlgorithm) {
		t.Errorf("AlltoallvWith(bad algorithm) = %v, want ErrInvalidAlgorithm", err)
	}

	// ErrNilBuffer: nil payload outside a phantom world.
	err = w.Run(func(c *Comm) error {
		counts := []int{1, 1, 1, 1}
		displs := []int{0, 1, 2, 3}
		return c.Alltoallv(nil, counts, displs, make([]byte, 4), counts, displs)
	})
	if !errors.Is(err, ErrNilBuffer) {
		t.Errorf("Alltoallv(nil send) = %v, want ErrNilBuffer", err)
	}

	// ErrInvalidLayout: a layout whose extent overflows int.
	err = w.Run(func(c *Comm) error {
		counts := []int{1, 1 << 62, 1 << 62, 1 << 62}
		displs := []int{0, 1 << 62, 1 << 62, 1 << 62}
		buf := make([]byte, 4)
		return c.Alltoallv(buf, counts, displs, buf, []int{1, 1, 1, 1}, []int{0, 1, 2, 3})
	})
	if !errors.Is(err, ErrInvalidLayout) {
		t.Errorf("Alltoallv(overflowing layout) = %v, want ErrInvalidLayout", err)
	}
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("overflow error %v does not say so", err)
	}

	// ErrInvalidRanks from Group.
	err = w.Run(func(c *Comm) error {
		if _, err := c.Group(nil); !errors.Is(err, ErrInvalidRanks) {
			t.Errorf("Group(nil) = %v, want ErrInvalidRanks", err)
		}
		if _, err := c.Group([]int{0, 0}); !errors.Is(err, ErrInvalidRanks) {
			t.Errorf("Group(duplicates) = %v, want ErrInvalidRanks", err)
		}
		if _, err := c.Group([]int{0, 7}); !errors.Is(err, ErrInvalidRanks) {
			t.Errorf("Group(out of range) = %v, want ErrInvalidRanks", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPublicSplitExchanges splits an 8-rank world into uneven halves and
// runs a full Alltoallv on each sub-communicator, checking delivery,
// rank numbering, and communicator identity through the public surface.
func TestPublicSplitExchanges(t *testing.T) {
	const P = 8
	w, err := NewWorld(P)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *Comm) error {
		color := 0
		if c.Rank() >= 5 {
			color = 1
		}
		sub := c.Split(color, c.Rank())
		if sub == nil {
			t.Errorf("rank %d: Split returned nil for a defined color", c.Rank())
			return nil
		}
		wantSize := 5
		if color == 1 {
			wantSize = 3
		}
		if sub.Size() != wantSize {
			t.Errorf("rank %d: sub size %d, want %d", c.Rank(), sub.Size(), wantSize)
		}
		if sub.GlobalRank() != c.Rank() {
			t.Errorf("rank %d: sub GlobalRank %d", c.Rank(), sub.GlobalRank())
		}
		if c.CommID() != 0 || sub.CommID() == 0 {
			t.Errorf("rank %d: CommID world=%d sub=%d, want 0 and nonzero", c.Rank(), c.CommID(), sub.CommID())
		}
		SP := sub.Size()
		scounts := make([]int, SP)
		rcounts := make([]int, SP)
		for d := 0; d < SP; d++ {
			scounts[d] = 1 + (sub.Rank()+d)%4
		}
		sdispls, sTotal := Displacements(scounts)
		if err := sub.ExchangeCounts(scounts, rcounts); err != nil {
			return err
		}
		rdispls, rTotal := Displacements(rcounts)
		send := make([]byte, sTotal)
		for d := 0; d < SP; d++ {
			for j := 0; j < scounts[d]; j++ {
				send[sdispls[d]+j] = byte(64*color + 8*sub.Rank() + d)
			}
		}
		recv := make([]byte, rTotal)
		if err := sub.Alltoallv(send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
			return err
		}
		for s := 0; s < SP; s++ {
			for j := 0; j < rcounts[s]; j++ {
				if got, want := recv[rdispls[s]+j], byte(64*color+8*s+sub.Rank()); got != want {
					t.Errorf("color %d sub-rank %d: block from %d byte %d = %#x, want %#x",
						color, sub.Rank(), s, j, got, want)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPublicRunContextCancel checks the public RunContext surface: a
// canceled context aborts a livelocked run with an error that matches
// context.Canceled and carries the per-rank DeadlockError report, and
// the world stays usable.
func TestPublicRunContextCancel(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	err = w.RunContext(ctx, func(c *Comm) error {
		for {
			c.Barrier()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext error %v does not match context.Canceled", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Errorf("RunContext error %v carries no DeadlockError report", err)
	}
	// The world is reusable after an aborted run.
	if err := w.Run(func(c *Comm) error { c.Barrier(); return nil }); err != nil {
		t.Errorf("Run after aborted RunContext: %v", err)
	}
}

func TestPublicCloseStopsRuns(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w.Close() // idempotent
	if err := w.Run(func(c *Comm) error { return nil }); err == nil {
		t.Error("Run succeeded on a closed World")
	}
}

// TestDroppedWorldsReleaseGoroutines checks that a World dropped without
// Close does not keep its resident rank goroutines: once the worlds are
// unreachable, the garbage collector's finalizer closes them and the
// goroutine count returns to where it started.
func TestDroppedWorldsReleaseGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		w, err := NewWorld(32)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(c *Comm) error { c.Barrier(); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after dropping 10 worlds of 32 ranks, %d before", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
