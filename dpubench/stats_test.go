package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuantileIsExactOnRawSamples(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(append([]float64(nil), xs...), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestSameOutputsNaNCarveOut(t *testing.T) {
	nan := math.NaN()
	if !sameOutputs([]float64{1, nan}, []float64{1, nan}) {
		t.Error("NaN on both sides must compare equal")
	}
	if sameOutputs([]float64{1, 2}, []float64{1, nan}) {
		t.Error("a number against a NaN reference must differ")
	}
	if sameOutputs([]float64{1, math.Nextafter(2, 3)}, []float64{1, 2}) {
		t.Error("comparison must be bit-exact")
	}
}

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 100, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 100, 2*time.Second)
	if len(a) != len(b) || len(a) < 150 || len(a) > 250 {
		t.Fatalf("schedules of %d and %d arrivals, want equal and about 200", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= 2*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWarmPicksVisitEveryGraphPerCycle(t *testing.T) {
	p := &population{suite: make([]*graphCase, 4)}
	for g := range p.suite {
		p.suite[g] = &graphCase{name: string(rune('a' + g))}
		for v := 0; v < vectorsPer; v++ {
			p.pool = append(p.pool, &request{gc: p.suite[g]})
		}
	}
	w := &warmPicks{p: p, rng: rand.New(rand.NewSource(1))}
	for cycle := 0; cycle < 10; cycle++ {
		seen := map[*graphCase]bool{}
		for i := 0; i < len(p.suite); i++ {
			seen[w.next().gc] = true
		}
		if len(seen) != len(p.suite) {
			t.Fatalf("cycle %d visited %d of %d graphs", cycle, len(seen), len(p.suite))
		}
	}
}

func TestTableIInputsGiveFiniteReferences(t *testing.T) {
	suite, err := tableI(serveScale)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, gc := range suite {
		if _, err := reference(gc, inputVector(rng, gc.nIn)); err != nil {
			t.Error(err)
		}
	}
}
