package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hetgrid/internal/grid"
	"hetgrid/internal/spantree"
)

// normalizeWorkers maps the Workers option to a concrete worker count.
func normalizeWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// minTreesForSplit is the spanning-tree count above which a single
// arrangement's enumeration is partitioned across workers (below it,
// arrangement-level parallelism is enough and partition overhead dominates).
const minTreesForSplit = 256

// atomicFloat64 is a float64 with atomic load/store and monotone raise,
// encoded through its IEEE bits. Only non-NaN values are stored, and the
// raise is monotone non-decreasing, so bit comparison is safe.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat64) load() float64   { return math.Float64frombits(a.bits.Load()) }

// raise lifts the stored value to at least v (CAS loop).
func (a *atomicFloat64) raise(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// partitionBits picks how many leading edge-choice digits to branch on so
// that a single arrangement's 2^bits partition classes keep `workers`
// workers busy, without exploding the item count.
func partitionBits(treeCount, nEdges, workers int) int {
	if workers <= 1 || treeCount < minTreesForSplit {
		return 0
	}
	bits := 0
	for 1<<bits < 2*workers && bits < 8 && bits < nEdges {
		bits++
	}
	return bits
}

// runSearchers runs work on `workers` goroutines, each with its own
// treeSearcher, and returns the searchers once every goroutine has finished.
// Each searcher is built on the goroutine that uses it, so its small,
// constantly written buffers come from that processor's allocation cache:
// built side by side on one goroutine, two workers' buffers share cache
// lines, and on 2 CPUs that false sharing doubled the CPU time of a solve.
func runSearchers(p, q, workers int, opts ExactOptions, work func(s *treeSearcher)) []*treeSearcher {
	searchers := make([]*treeSearcher, workers)
	var wg sync.WaitGroup
	for w := range searchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newTreeSearcher(p, q, opts)
			s.resetBest()
			searchers[w] = s
			work(s)
		}()
	}
	wg.Wait()
	return searchers
}

// mergeSearchers adds every searcher's statistics into total and returns
// the best candidate under the deterministic total order.
func mergeSearchers(searchers []*treeSearcher, total *ExactStats) (*Solution, *ExactStats, error) {
	var best *treeSearcher
	for _, s := range searchers {
		total.Add(&s.stats)
		if s.best.arr != nil && (best == nil || s.best.betterThan(&best.best)) {
			best = s
		}
	}
	if best == nil {
		return nil, total, ErrNoAcceptableTree
	}
	return best.solution(), total, nil
}

// SolveGlobalExactParallel runs the branch-and-bound global exact search of
// SolveGlobalExact on the given number of workers (0 selects GOMAXPROCS).
// Work items are numbered in the deterministic EnumerateNonDecreasing order
// and claimed from a shared atomic cursor: every worker walks the
// enumeration itself, in place, and searches the items it claims, so no
// arrangement is copied for, or handed to, another goroutine. An item is a
// whole arrangement, or — only when there are fewer arrangements than
// workers — one tree-partition class of an arrangement. Workers keep reusable scratch
// state and share a monotone best-so-far objective through an atomic float
// that short-circuits candidate bookkeeping. The returned solution —
// objective, arrangement, R, C — is bit-identical to the serial solver's for
// every worker count: candidates are ordered by the deterministic total
// order (higher objective, then lexicographically smallest arrangement, then
// lexicographically smallest tree), and all pruning decisions depend only on
// the input, never on scheduling.
func SolveGlobalExactParallel(times []float64, p, q, workers int) (*Solution, *ExactStats, error) {
	return SolveGlobalExactOpt(times, p, q, ExactOptions{Workers: workers})
}

func solveGlobalParallel(times []float64, p, q int, opts ExactOptions) (*Solution, *ExactStats, error) {
	// Counting the arrangements also validates the input before any worker
	// starts.
	arrangements, err := grid.CountNonDecreasing(times, p, q)
	if err != nil {
		return nil, &ExactStats{}, err
	}
	workers := normalizeWorkers(opts.Workers)
	seed := math.Inf(-1)
	if !opts.NoPrune {
		seed = heuristicSeedBound(times, p, q)
		if opts.SeedBound > seed {
			seed = opts.SeedBound
		}
	}
	var incumbent atomicFloat64
	incumbent.store(seed)

	treeCount := spantree.CountCompleteBipartite(p, q)
	prefixes := [][]bool{nil}
	if arrangements < workers {
		prefixes = spantree.PartitionPrefixes(p*q, partitionBits(treeCount, p*q, workers))
	}
	parts := len(prefixes)
	items := int64(arrangements * parts)
	var cursor atomic.Int64

	searchers := runSearchers(p, q, workers, opts, func(s *treeSearcher) {
		item := cursor.Add(1) - 1
		if item >= items {
			return
		}
		seq := 0
		// The input was validated by the count above.
		_, _ = grid.EnumerateNonDecreasingShared(times, p, q, func(arr *grid.Arrangement) bool {
			// The bound test uses the deterministic heuristic seed, not the
			// live incumbent, so the pruned arrangement set — and with it
			// every tree statistic — is identical for every worker count
			// and every run.
			checked, pruned := false, false
			for ; item < items && int(item)/parts == seq; item = cursor.Add(1) - 1 {
				part := int(item) % parts
				if !checked {
					checked = true
					pruned = !opts.NoPrune && ArrangementUpperBound(arr) < seed
				}
				if pruned {
					if part == 0 {
						s.stats.ArrangementsPruned++
					}
					continue
				}
				// Candidates strictly below the shared best-so-far can never
				// win (the worker holding that value keeps it locally), so
				// skip their bookkeeping. Counters are taken before the
				// skip, keeping all statistics scheduling-independent.
				s.skipBelow = incumbent.load()
				s.searchArrangement(arr, seq, prefixes[part])
				s.detachBest(arr)
				if s.best.arr != nil {
					incumbent.raise(s.best.obj)
				}
			}
			seq++
			return item < items
		})
	})
	return mergeSearchers(searchers, &ExactStats{
		Arrangements:     arrangements,
		TreesTheoretical: arrangements * treeCount,
	})
}

// solveArrangementParallel splits the spanning-tree enumeration of a single
// arrangement across workers by partitioning on the first edge-choice
// digits; workers claim partition classes from a shared atomic cursor.
// Results are bit-identical to the serial fixed-arrangement solver.
func solveArrangementParallel(arr *grid.Arrangement, workers int, opts ExactOptions) (*Solution, *ExactStats, error) {
	p, q := arr.P, arr.Q
	treeCount := spantree.CountCompleteBipartite(p, q)
	bits := 0
	if treeCount >= minTreesForSplit {
		for 1<<bits < 4*workers && bits < 10 && bits < p*q {
			bits++
		}
	}
	if bits == 0 {
		serial := opts
		serial.Workers = 1
		return SolveArrangementExactOpt(arr, serial)
	}
	prefixes := spantree.PartitionPrefixes(p*q, bits)
	var cursor atomic.Int64
	searchers := runSearchers(p, q, workers, opts, func(s *treeSearcher) {
		for item := cursor.Add(1) - 1; item < int64(len(prefixes)); item = cursor.Add(1) - 1 {
			s.searchArrangement(arr, 0, prefixes[item])
		}
	})
	return mergeSearchers(searchers, &ExactStats{Arrangements: 1, TreesTheoretical: treeCount})
}
