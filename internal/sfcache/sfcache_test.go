package sfcache

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Do/Len and the singleflight/eviction semantics are additionally covered
// through the two instantiations' suites (internal/plan/cache_test.go and
// internal/service, incl. the persist tests driving Preload end to end).

func TestPreloadReplacesAndCounts(t *testing.T) {
	c := New[int](2)
	ctx := context.Background()
	c.Preload("a", 1)
	c.Preload("a", 2) // replace, not duplicate
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	v, hit, err := c.Do(ctx, "a", func() (int, error) { return 9, nil })
	if err != nil || !hit || v != 2 {
		t.Fatalf("Do after Preload: %v %v %v (last Preload must win)", v, hit, err)
	}
	// Preloads participate in eviction like computed entries.
	c.Preload("b", 3)
	c.Preload("c", 4)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", c.Len())
	}
	if _, hit, _ := c.Do(ctx, "a", func() (int, error) { return 9, nil }); hit {
		t.Fatal("evicted preload still hit")
	}
}

func TestDoCtxAbandonLeavesFlight(t *testing.T) {
	c := New[int](4)
	gate := make(chan struct{})
	computing := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (int, error) {
			close(computing)
			<-gate
			return 7, nil
		})
	}()
	<-computing
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", func() (int, error) { return 0, errors.New("must not run") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter: %v, want context.Canceled", err)
	}
	close(gate)
	// The flight itself was undisturbed and its result is cached.
	v, hit, err := c.Do(context.Background(), "k", func() (int, error) { return 0, errors.New("must not run") })
	if err != nil || !hit || v != 7 {
		t.Fatalf("flight result after abandoned waiter: %v %v %v", v, hit, err)
	}
}

func TestStats(t *testing.T) {
	c := New[int](2)
	ctx := context.Background()

	// Miss, then hit.
	if _, shared, _ := c.Do(ctx, "a", func() (int, error) { return 1, nil }); shared {
		t.Fatal("first Do unexpectedly shared")
	}
	if _, shared, _ := c.Do(ctx, "a", func() (int, error) { return 0, nil }); !shared {
		t.Fatal("second Do unexpectedly computed")
	}

	// Coalesce: a second caller joins while the flight is blocked.
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(ctx, "slow", func() (int, error) {
		close(started)
		<-release
		return 2, nil
	})
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, shared, _ := c.Do(ctx, "slow", func() (int, error) { return -1, nil }); !shared || v != 2 {
			t.Errorf("coalesced Do got (v=%d, shared=%v), want (2, true)", v, shared)
		}
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done

	// Evict: a third completed entry exceeds the bound of 2.
	c.Do(ctx, "b", func() (int, error) { return 3, nil })

	st := c.Stats()
	want := Stats{Hits: 1, Misses: 3, Coalesced: 1, Evictions: 1}
	if st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
}

func TestHas(t *testing.T) {
	c := New[int](4)
	ctx := context.Background()
	if c.Has("a") {
		t.Fatal("Has on empty cache")
	}
	// In-flight: Has must report false until the flight completes.
	entered := make(chan struct{})
	release := make(chan struct{})
	go c.Do(ctx, "a", func() (int, error) {
		close(entered)
		<-release
		return 1, nil
	})
	<-entered
	if c.Has("a") {
		t.Fatal("Has true for an in-flight computation")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for !c.Has("a") {
		if time.Now().After(deadline) {
			t.Fatal("Has never became true after the flight completed")
		}
		time.Sleep(time.Millisecond)
	}
	// Failed computations leave no entry.
	_, _, err := c.Do(ctx, "b", func() (int, error) { return 0, errors.New("boom") })
	if err == nil {
		t.Fatal("expected error")
	}
	if c.Has("b") {
		t.Fatal("Has true for a failed computation")
	}
	// Peeking must not move the event counters.
	before := c.Stats()
	c.Has("a")
	if got := c.Stats(); got != before {
		t.Fatalf("Has moved stats: %+v -> %+v", before, got)
	}
}

// TestGoJoinedByDo: Go registers the flight before it returns, so a Do
// issued right after joins it — one compute, counted as a coalesced join.
func TestGoJoinedByDo(t *testing.T) {
	c := New[int](4)
	release := make(chan struct{})
	runs := 0
	done := make(chan struct{})
	if !c.Go("k", func() (int, error) {
		<-release
		runs++
		return 7, nil
	}, func() { close(done) }) {
		t.Fatal("Go on an empty cache started no flight")
	}
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		v, shared, err := c.Do(context.Background(), "k", func() (int, error) { return 0, errors.New("must not run") })
		if err != nil || !shared || v != 7 {
			t.Errorf("Do after Go: %v %v %v, want 7 shared", v, shared, err)
		}
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-joined
	<-done
	if runs != 1 {
		t.Fatalf("compute ran %d times, want 1", runs)
	}
	if st, want := c.Stats(), (Stats{Misses: 1, Coalesced: 1}); st != want {
		t.Fatalf("Stats() = %+v, want %+v", st, want)
	}
	if !c.Has("k") || len(c.Keys()) != 1 {
		t.Fatalf("flight not published by the time done ran: keys %v", c.Keys())
	}
}

// TestGoSkipsCachedOrInFlight: Go on a key already cached or in flight
// starts no second compute and counts its lookup as Do would — a hit, or a
// coalesced join.
func TestGoSkipsCachedOrInFlight(t *testing.T) {
	c := New[int](4)
	ctx := context.Background()
	if _, _, err := c.Do(ctx, "cached", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	mustNotRun := func() (int, error) {
		t.Error("second compute ran")
		return 0, nil
	}
	if c.Go("cached", mustNotRun, func() { t.Error("done ran for a flight Go did not start") }) {
		t.Fatal("Go started a flight for a cached key")
	}
	if st, want := c.Stats(), (Stats{Misses: 1, Hits: 1}); st != want {
		t.Fatalf("after Go on a cached key: Stats() = %+v, want %+v", st, want)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	go c.Do(ctx, "inflight", func() (int, error) {
		close(entered)
		<-release
		return 2, nil
	})
	<-entered
	if c.Go("inflight", mustNotRun, nil) {
		t.Fatal("Go started a second flight for an in-flight key")
	}
	close(release)
	if st, want := c.Stats(), (Stats{Misses: 2, Hits: 1, Coalesced: 1}); st != want {
		t.Fatalf("after Go on an in-flight key: Stats() = %+v, want %+v", st, want)
	}
}

// TestGoFailedFlightRecomputes: a flight Go started that fails is removed,
// so a later Do computes afresh instead of replaying the error.
func TestGoFailedFlightRecomputes(t *testing.T) {
	c := New[int](4)
	done := make(chan struct{})
	if !c.Go("k", func() (int, error) { return 0, errors.New("boom") }, func() { close(done) }) {
		t.Fatal("Go on an empty cache started no flight")
	}
	<-done
	if c.Has("k") || c.Len() != 0 {
		t.Fatalf("failed flight left an entry: Len %d", c.Len())
	}
	v, shared, err := c.Do(context.Background(), "k", func() (int, error) { return 3, nil })
	if err != nil || shared || v != 3 {
		t.Fatalf("Do after a failed flight: %v %v %v, want 3 computed afresh", v, shared, err)
	}
}
