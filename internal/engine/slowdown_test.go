package engine

import (
	"math/rand"
	"testing"

	"hetgrid/internal/matrix"
)

func TestSlowFactorSchedule(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(4), FaultConfig{
		Slowdowns: []SlowdownPoint{
			{Rank: 1, Step: 2, Factor: 4},
			{Rank: 1, Step: 5, Factor: 1}, // scheduled recovery
			{Rank: 2, Step: 0, Factor: 2.5},
		},
	})
	if f := ft.SlowFactor(1); f != 1 {
		t.Fatalf("factor before any step: %v", f)
	}
	ft.StepEntered(1, 0)
	if f := ft.SlowFactor(1); f != 1 {
		t.Fatalf("factor before the scheduled step: %v", f)
	}
	ft.StepEntered(1, 2)
	if f := ft.SlowFactor(1); f != 4 {
		t.Fatalf("factor at the scheduled step: %v", f)
	}
	ft.StepEntered(1, 3)
	if f := ft.SlowFactor(1); f != 4 {
		t.Fatalf("factor must persist past its step: %v", f)
	}
	// The latest-scheduled point wins: the Factor-1 recovery takes over.
	ft.StepEntered(1, 6)
	if f := ft.SlowFactor(1); f != 1 {
		t.Fatalf("scheduled recovery ignored: %v", f)
	}
	ft.StepEntered(2, 1)
	if f := ft.SlowFactor(2); f != 2.5 {
		t.Fatalf("rank 2 factor: %v", f)
	}
	if f := ft.SlowFactor(0); f != 1 {
		t.Fatalf("unscheduled rank slowed: %v", f)
	}
	// Each activation is recorded once.
	cnt := ft.Counters()
	if len(cnt.Slowed) != 3 {
		t.Fatalf("slowed points: %+v", cnt.Slowed)
	}
}

func TestSlowdownStretchesBusyTimeNotResults(t *testing.T) {
	// A scheduled slowdown must (a) inflate the slowed rank's busy-time
	// gauge and (b) leave the numerical result bit-identical to the
	// undisturbed run — it models lost speed, not lost data.
	//
	// Busy times are wall-clock sums of microsecond compute sections, and
	// with 4 ranks on a host of few cores any section can be stretched by
	// the host descheduling its goroutine. That noise only ever adds
	// time, so each rank's busy time is taken as its minimum over several
	// identical runs: the injected 16× survives every run, while a rank
	// must be disturbed in all of them to look slow.
	d := faultTestDist(t, 6)
	a := matrix.RandomWellConditioned(12, rand.New(rand.NewSource(11)))

	run := func(slow []SlowdownPoint) (*matrix.Dense, []float64) {
		out, w, err := runLU(t, d, a, 2, Options{
			Record: true,
			Faults: &FaultConfig{Slowdowns: slow},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, w.BusyTimes()
	}

	plain, _ := run(nil)
	const runs = 7
	var busy []float64
	for i := 0; i < runs; i++ {
		slowed, b := run([]SlowdownPoint{{Rank: 3, Step: 0, Factor: 16}})
		if !plain.Equal(slowed) {
			t.Fatal("slowdown changed the numerical result")
		}
		if busy == nil {
			busy = b
		}
		for r := range busy {
			busy[r] = min(busy[r], b[r])
		}
	}
	others := 0.0
	for r, b := range busy {
		if r != 3 && b > others {
			others = b
		}
	}
	if busy[3] < 3*others {
		t.Fatalf("16× slowdown barely visible: rank 3 busy %v vs others' max %v (minimum of %d runs)", busy[3], others, runs)
	}
}

func TestComputeSlowdownWithoutSpans(t *testing.T) {
	// The spin applies even when span recording is off — wall-clock drift
	// exists whether or not anyone is measuring it — and results stay
	// correct.
	d := faultTestDist(t, 4)
	a := matrix.RandomWellConditioned(8, rand.New(rand.NewSource(12)))
	plain, _, err := runLU(t, d, a, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slowed, w, err := runLU(t, d, a, 2, Options{
		Faults: &FaultConfig{Slowdowns: []SlowdownPoint{{Rank: 1, Step: 1, Factor: 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(slowed) {
		t.Fatal("slowdown without spans changed the result")
	}
	if w.BusyTimes() != nil {
		t.Fatal("busy times recorded without Record")
	}
	if cnt := w.FaultCounters(); len(cnt.Slowed) != 1 {
		t.Fatalf("activation not recorded: %+v", cnt)
	}
}
