package mechanism

import (
	"math/rand"
	"sync"
	"testing"

	"recmech/internal/lp"
	"recmech/internal/noise"
)

// TestEfficientSolvesEachRungOnce pins Efficient as the owner of the solved
// ladder: it solves each rung at most once, whether the rung is asked again
// in sequence or by four goroutines racing on the same rungs, and every
// caller gets the bits a lone solve gives.
func TestEfficientSolvesEachRungOnce(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		s := randomSensitive(rng, 5+trial, 10+trial, 3)
		nP := s.NumParticipants()

		ref := mustEfficient(t, s)
		wantH := seqValues(t, ref, ref.H)
		wantG := seqValues(t, ref, ref.G)
		hSolves, gSolves := ref.Solves()
		if hSolves == 0 || gSolves == 0 {
			t.Fatalf("trial %d: the ladder took no LP solve (H %d, G %d); the test is vacuous", trial, hSolves, gSolves)
		}
		before := lp.ReadCounters().Solves
		seqValues(t, ref, ref.H)
		seqValues(t, ref, ref.G)
		if h, g := ref.Solves(); h != hSolves || g != gSolves {
			t.Fatalf("trial %d: asking the ladder again solved more rungs: H %d→%d, G %d→%d", trial, hSolves, h, gSolves, g)
		}
		if n := lp.ReadCounters().Solves - before; n != 0 {
			t.Fatalf("trial %d: asking the ladder again ran %d LP solves", trial, n)
		}

		e := mustEfficient(t, s)
		before = lp.ReadCounters().Solves
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i <= nP; i++ {
					h, err := e.H(i)
					if err != nil || f64bits(h) != f64bits(wantH[i]) {
						t.Errorf("trial %d: racing H_%d = %v (%v), want %v", trial, i, h, err, wantH[i])
						return
					}
					g, err := e.G(i)
					if err != nil || f64bits(g) != f64bits(wantG[i]) {
						t.Errorf("trial %d: racing G_%d = %v (%v), want %v", trial, i, g, err, wantG[i])
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if h, g := e.Solves(); h != hSolves || g != gSolves {
			t.Fatalf("trial %d: racing goroutines solved H %d and G %d rungs, want %d and %d", trial, h, g, hSolves, gSolves)
		}
		if n := lp.ReadCounters().Solves - before; n != hSolves+gSolves {
			t.Fatalf("trial %d: racing goroutines ran %d LP solves, want %d", trial, n, hSolves+gSolves)
		}
	}
}

// TestCarryValues pins the carry Plan.Advance uses on identical
// generations: a fresh Efficient of the same computation gets its
// predecessor's rungs bit for bit, and a release over the carried ladder
// equals the predecessor's release at the same seed without one LP solve.
func TestCarryValues(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(950 + trial)))
		s := randomSensitive(rng, 5+trial, 10+trial, 3)
		nP := s.NumParticipants()
		params := DefaultParams(0.5, trial%2 == 0)

		old := mustEfficient(t, s)
		want, err := mustCore(t, old, params).Release(noise.NewRand(int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		hOld, gOld := old.Solves()

		next := mustEfficient(t, s)
		before := lp.ReadCounters().Solves
		if n := next.CarryValues(old); n != int(hOld+gOld) {
			t.Fatalf("trial %d: carried %d rungs, predecessor solved %d", trial, n, hOld+gOld)
		}
		for i := 0; i <= nP; i++ {
			for _, isH := range []bool{true, false} {
				v, ok := old.Solved(isH, i)
				got, gotOK := next.Solved(isH, i)
				if ok != gotOK || f64bits(got) != f64bits(v) {
					t.Fatalf("trial %d: rung %d (H=%v) carried as (%v, %v), predecessor holds (%v, %v)", trial, i, isH, got, gotOK, v, ok)
				}
			}
		}
		got, err := mustCore(t, next, params).Release(noise.NewRand(int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if f64bits(got) != f64bits(want) {
			t.Fatalf("trial %d: release over the carried ladder = %v, predecessor released %v", trial, got, want)
		}
		if h, g := next.Solves(); h != 0 || g != 0 {
			t.Fatalf("trial %d: carried ladder solved H %d and G %d rungs, want none", trial, h, g)
		}
		if n := lp.ReadCounters().Solves - before; n != 0 {
			t.Fatalf("trial %d: carried ladder ran %d LP solves, want none", trial, n)
		}
	}
}
