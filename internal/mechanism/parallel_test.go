package mechanism

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"recmech/internal/noise"
	"recmech/internal/pool"
)

// f64bits compares float64s for bit-identity (the contract of the parallel
// compile engine: parallelism must not change a single output bit).
func f64bits(v float64) uint64 { return math.Float64bits(v) }

// TestLadderFanoutBitIdentical is the mechanism-layer golden test: a Core
// driving its ladder waves through a real compute pool must produce
// bit-identical Δ, Δ-index, X values and seeded releases to a Core with no
// fanout at all, across a spread of random sensitive relations.
func TestLadderFanoutBitIdentical(t *testing.T) {
	p := pool.New(4)
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		s := randomSensitive(rng, 4+trial%5, 6+trial, 3)
		for _, eps := range []float64{0.3, 1.0} {
			params := DefaultParams(eps, trial%2 == 0)

			seqSerial := mustEfficient(t, s)
			serial := mustCore(t, seqSerial, params)

			seqPar := mustEfficient(t, s)
			parallel := mustCore(t, seqPar, params)
			parallel.SetFanout(p.Fanout(ctx))

			dS, err := serial.Delta()
			if err != nil {
				t.Fatalf("trial %d: serial Delta: %v", trial, err)
			}
			dP, err := parallel.Delta()
			if err != nil {
				t.Fatalf("trial %d: parallel Delta: %v", trial, err)
			}
			if f64bits(dS) != f64bits(dP) {
				t.Fatalf("trial %d ε=%g: Δ differs: serial %v parallel %v", trial, eps, dS, dP)
			}
			iS, _ := serial.DeltaIndex()
			iP, _ := parallel.DeltaIndex()
			if iS != iP {
				t.Fatalf("trial %d ε=%g: Δ-index differs: %d vs %d", trial, eps, iS, iP)
			}
			for _, dh := range []float64{dS, 2.5 * dS, 0.7*dS + 1} {
				xS, err := serial.XGiven(dh)
				if err != nil {
					t.Fatal(err)
				}
				xP, err := parallel.XGiven(dh)
				if err != nil {
					t.Fatal(err)
				}
				if f64bits(xS) != f64bits(xP) {
					t.Fatalf("trial %d ε=%g Δ̂=%v: X differs: %v vs %v", trial, eps, dh, xS, xP)
				}
			}
			// Seeded releases consume the RNG identically regardless of how
			// ladder waves execute, so the streams must match draw for draw.
			rngS, rngP := noise.NewRand(int64(trial)), noise.NewRand(int64(trial))
			for rel := 0; rel < 4; rel++ {
				vS, err := serial.Release(rngS)
				if err != nil {
					t.Fatal(err)
				}
				vP, err := parallel.Release(rngP)
				if err != nil {
					t.Fatal(err)
				}
				if f64bits(vS) != f64bits(vP) {
					t.Fatalf("trial %d ε=%g release %d: %v vs %v", trial, eps, rel, vS, vP)
				}
			}
		}
	}
}

// TestEfficientConcurrentHG hammers a shared Efficient with concurrent H/G
// calls (run under -race) and checks every value is bit-identical to a
// serial evaluation. Each repetition gets a fresh Efficient, so its calls
// solve the ladder rather than read rungs an earlier repetition stored.
func TestEfficientConcurrentHG(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := randomSensitive(rng, 6, 12, 3)
	serial := mustEfficient(t, s)
	nP := serial.NumParticipants()

	wantH := make([]float64, nP+1)
	wantG := make([]float64, nP+1)
	for i := 0; i <= nP; i++ {
		var err error
		if wantH[i], err = serial.H(i); err != nil {
			t.Fatal(err)
		}
		if wantG[i], err = serial.G(i); err != nil {
			t.Fatal(err)
		}
	}

	p := pool.New(8)
	for rep := 0; rep < 4; rep++ {
		e := mustEfficient(t, s)
		gotH := make([]float64, nP+1)
		gotG := make([]float64, nP+1)
		err := p.Map(context.Background(), 2*(nP+1), func(k int) error {
			i := k / 2
			var err error
			if k%2 == 0 {
				gotH[i], err = e.H(i)
			} else {
				gotG[i], err = e.G(i)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= nP; i++ {
			if f64bits(gotH[i]) != f64bits(wantH[i]) {
				t.Fatalf("rep %d: concurrent H_%d = %v, serial %v", rep, i, gotH[i], wantH[i])
			}
			if f64bits(gotG[i]) != f64bits(wantG[i]) {
				t.Fatalf("rep %d: concurrent G_%d = %v, serial %v", rep, i, gotG[i], wantG[i])
			}
		}
	}
}

// A fanout error (e.g. cancellation) must surface from Prepare/XGiven, not
// corrupt the solved ladder: a later serial retry still succeeds.
func TestFanoutErrorSurfacesAndRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomSensitive(rng, 6, 12, 3)
	seq := mustEfficient(t, s)
	core := mustCore(t, seq, DefaultParams(0.5, true))

	boom := errors.New("fanout down")
	core.SetFanout(func(n int, task func(int) error) error { return boom })
	if err := core.Prepare(); !errors.Is(err, boom) {
		t.Fatalf("Prepare error = %v, want %v", err, boom)
	}

	core.SetFanout(nil)
	if err := core.Prepare(); err != nil {
		t.Fatalf("serial retry after fanout failure: %v", err)
	}
	want := mustCore(t, mustEfficient(t, s), DefaultParams(0.5, true))
	dWant, err := want.Delta()
	if err != nil {
		t.Fatal(err)
	}
	dGot, err := core.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if f64bits(dGot) != f64bits(dWant) {
		t.Fatalf("Δ after recovery = %v, want %v", dGot, dWant)
	}
}

// The wave schedule must be a pure function of the bracket — no dependence
// on worker count — so any two fanout widths touch identical probe sets.
func TestWaveProbesFixedSchedule(t *testing.T) {
	cases := []struct {
		lo, hi int
		want   []int
	}{
		{0, 10, []int{2, 4, 6, 8}},
		{0, 6, []int{1, 2, 3, 4}},
		{3, 9, []int{4, 5, 6, 7}},
		{0, 100, []int{20, 40, 60, 80}},
		{0, 5, []int{1, 2, 3, 4}},
	}
	buf := make([]int, ladderWave)
	for _, c := range cases {
		got := waveProbes(c.lo, c.hi, buf)
		if len(got) != len(c.want) {
			t.Fatalf("waveProbes(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
		for k := range got {
			if got[k] != c.want[k] {
				t.Fatalf("waveProbes(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
			}
		}
	}
	// Probes are always strictly increasing interior points.
	for lo := 0; lo < 8; lo++ {
		for hi := lo + 1; hi < 40; hi++ {
			ps := waveProbes(lo, hi, buf)
			prev := lo
			for _, p := range ps {
				if p <= prev || p >= hi {
					t.Fatalf("waveProbes(%d,%d) = %v not interior/increasing", lo, hi, ps)
				}
				prev = p
			}
		}
	}
}
