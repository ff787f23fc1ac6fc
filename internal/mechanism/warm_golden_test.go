package mechanism

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"recmech/internal/lp"
)

// TestSeededSolvesBitIdentical pins the warm-start contract where warm
// starts live: one Efficient's rung cache, filled in several rung orders —
// ascending, descending, far end first, and from 4 goroutines at once — must
// return every H_i and G_i bit for bit equal to the first solve of a fresh
// Efficient at that rung, which runs cold because its cache is empty.
func TestSeededSolvesBitIdentical(t *testing.T) {
	before := lp.ReadCounters()
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		s := randomSensitive(rng, 4+trial%4, 6+trial, 3)
		nP := s.NumParticipants()

		wantH := make([]float64, nP+1)
		wantG := make([]float64, nP+1)
		for i := 0; i <= nP; i++ {
			cold := mustEfficient(t, s)
			var err error
			if wantH[i], err = cold.H(i); err != nil {
				t.Fatal(err)
			}
			if wantG[i], err = cold.G(i); err != nil {
				t.Fatal(err)
			}
		}
		check := func(label string, e *Efficient, i int) error {
			v, err := e.H(i)
			if err != nil {
				return fmt.Errorf("%s: H_%d: %v", label, i, err)
			}
			if f64bits(v) != f64bits(wantH[i]) {
				return fmt.Errorf("%s: warm H_%d = %v, cold %v", label, i, v, wantH[i])
			}
			if v, err = e.G(i); err != nil {
				return fmt.Errorf("%s: G_%d: %v", label, i, err)
			}
			if f64bits(v) != f64bits(wantG[i]) {
				return fmt.Errorf("%s: warm G_%d = %v, cold %v", label, i, v, wantG[i])
			}
			return nil
		}

		asc := make([]int, nP+1)
		desc := make([]int, nP+1)
		for i := range asc {
			asc[i], desc[i] = i, nP-i
		}
		for _, o := range []struct {
			name  string
			rungs []int
		}{{"ascending", asc}, {"descending", desc}, {"far-first", farFirst(nP)}} {
			e := mustEfficient(t, s)
			for _, i := range o.rungs {
				if err := check(fmt.Sprintf("trial %d %s", trial, o.name), e, i); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Four goroutines share one cache, each sweeping the ladder from a
		// different starting rung, alternating direction.
		e := mustEfficient(t, s)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k <= nP; k++ {
					i := (w*(nP+1)/4 + k) % (nP + 1)
					if w%2 == 1 {
						i = nP - i
					}
					if err := check(fmt.Sprintf("trial %d goroutine %d", trial, w), e, i); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	if after := lp.ReadCounters(); after.WarmApplied == before.WarmApplied {
		t.Fatal("no solve applied a warm-start seed: the cache never seeded anything")
	}
}

// farFirst orders the rungs 0..n the way the Δ search jumps: both ends
// first, then the midpoints of ever finer brackets, so early solves find
// their nearest cached rung far away.
func farFirst(n int) []int {
	order := []int{n, 0}
	type bracket struct{ lo, hi int }
	queue := []bracket{{0, n}}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if b.hi-b.lo < 2 {
			continue
		}
		m := (b.lo + b.hi) / 2
		order = append(order, m)
		queue = append(queue, bracket{b.lo, m}, bracket{m, b.hi})
	}
	return order
}
