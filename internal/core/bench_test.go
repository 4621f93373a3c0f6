package core

import (
	"math/rand"
	"testing"

	"hetgrid/internal/grid"
)

func randomTimes(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	times := make([]float64, n)
	for i := range times {
		times[i] = 0.05 + rng.Float64()
	}
	return times
}

func BenchmarkRankOneStep(b *testing.B) {
	for _, n := range []int{3, 6, 12} {
		b.Run(gridLabel(n, n), func(b *testing.B) {
			arr, err := grid.RowMajor(randomTimes(n*n, int64(n)), n, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RankOneStep(arr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveHeuristic(b *testing.B) {
	for _, n := range []int{3, 6, 12} {
		b.Run(gridLabel(n, n), func(b *testing.B) {
			times := randomTimes(n*n, int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveHeuristic(times, n, n, HeuristicOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveArrangementExact(b *testing.B) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {3, 4}} {
		b.Run(gridLabel(dims[0], dims[1]), func(b *testing.B) {
			arr, err := grid.RowMajor(randomTimes(dims[0]*dims[1], 7), dims[0], dims[1])
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := SolveArrangementExact(arr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveGlobalExact3x3(b *testing.B) {
	times := randomTimes(9, 11)
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveGlobalExact(times, 3, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveGlobalExact compares the exhaustive search (noprune,
// workers=1), the serial branch-and-bound and the parallel solver at 8
// workers on the grid sizes the paper's exact method targets; all three
// return bit-identical solutions. The parallel rows measure speedup only up
// to the host's CPU count: beyond it, 8 workers share the cores.
// cmd/benchexact records the same modes in BENCH_exact.json.
func BenchmarkSolveGlobalExact(b *testing.B) {
	modes := []struct {
		name string
		opts ExactOptions
	}{
		{"noprune", ExactOptions{Workers: 1, NoPrune: true}},
		{"serial", ExactOptions{Workers: 1}},
		{"parallel8", ExactOptions{Workers: 8}},
	}
	for _, dims := range [][2]int{{2, 3}, {3, 3}, {3, 4}} {
		p, q := dims[0], dims[1]
		times := randomTimes(p*q, 11)
		for _, m := range modes {
			b.Run(gridLabel(p, q)+"/"+m.name, func(b *testing.B) {
				var visited int
				for i := 0; i < b.N; i++ {
					_, stats, err := SolveGlobalExactOpt(times, p, q, m.opts)
					if err != nil {
						b.Fatal(err)
					}
					visited = stats.TreesVisited
				}
				b.ReportMetric(float64(visited), "trees/op")
			})
		}
	}
}

func BenchmarkChooseShape(b *testing.B) {
	times := randomTimes(16, 13)
	for i := 0; i < b.N; i++ {
		if _, err := ChooseShape(times, ShapeOptions{AllowSubset: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func gridLabel(p, q int) string {
	d := func(n int) string {
		if n < 10 {
			return string(rune('0' + n))
		}
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return d(p) + "x" + d(q)
}
