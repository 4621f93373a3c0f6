package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"hetgrid"
	"hetgrid/internal/matrix"
	"hetgrid/internal/obs"
)

// kernelCase is one distributed-kernel workload: an n×n problem in r×r
// blocks on the 2×2 panel layout of the paper's cycle-times {1,2,3,5}.
type kernelCase struct {
	name  string
	n, r  int
	kern  hetgrid.Kernel
	flops float64
}

var (
	factorFine     = kernelCase{name: "factor-fine", n: 256, r: 8, kern: hetgrid.LU, flops: 2 * 256 * 256 * 256 / 3.0}
	multiplyCoarse = kernelCase{name: "multiply-coarse", n: 768, r: 64, kern: hetgrid.MatMul, flops: 2 * 768 * 768 * 768}
)

func runFactorFine(cfg config) (*report, error)     { return runKernel(cfg, factorFine) }
func runMultiplyCoarse(cfg config) (*report, error) { return runKernel(cfg, multiplyCoarse) }

// kernelSUT is a built layout with its seeded inputs and the serial
// oracle's result.
type kernelSUT struct {
	kc     kernelCase
	dist   hetgrid.Distribution
	a, b   *matrix.Dense
	oracle *matrix.Dense
}

func buildKernel(kc kernelCase, seed int64) (*kernelSUT, error) {
	pl, err := hetgrid.Balance([]float64{1, 2, 3, 5}, 2, 2, hetgrid.StrategyExact)
	if err != nil {
		return nil, err
	}
	lay, err := pl.BestPanel(8, 8, kc.kern)
	if err != nil {
		return nil, err
	}
	nb := kc.n / kc.r
	d, err := lay.Distribute(nb, nb)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := &kernelSUT{kc: kc, dist: d}
	if kc.kern == hetgrid.LU {
		s.a = matrix.RandomWellConditioned(kc.n, rng)
	} else {
		s.a = matrix.Random(kc.n, kc.n, rng)
		s.b = matrix.Random(kc.n, kc.n, rng)
	}
	if s.oracle, err = s.serial(); err != nil {
		return nil, err
	}
	// Three distributed runs warm the engine's code paths and the heap.
	for i := 0; i < 3; i++ {
		if _, _, err := s.distributed(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// serial runs hetgrid.Factor or hetgrid.Multiply: the single-threaded
// serial replay that is both the baseline and the oracle.
func (s *kernelSUT) serial() (*matrix.Dense, error) {
	if s.kc.kern == hetgrid.LU {
		f, err := hetgrid.Factor(hetgrid.LU, s.dist, s.a)
		if err != nil {
			return nil, err
		}
		return f.Packed(), nil
	}
	return hetgrid.Multiply(s.dist, s.a, s.b)
}

func (s *kernelSUT) distributed(opts ...hetgrid.Option) (*matrix.Dense, *hetgrid.ExecStats, error) {
	if s.kc.kern == hetgrid.LU {
		f, st, err := hetgrid.DistributedFactor(hetgrid.LU, s.dist, s.a, s.kc.r, opts...)
		if err != nil {
			return nil, nil, err
		}
		return f.Packed(), st, nil
	}
	return hetgrid.DistributedMultiply(s.dist, s.a, s.b, s.kc.r, opts...)
}

// bitEqual reports whether a and b hold bit-identical entries.
func bitEqual(a, b *matrix.Dense) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	for i := 0; i < ar; i++ {
		x, y := a.RawRow(i), b.RawRow(i)
		for j := 0; j < ac; j++ {
			if math.Float64bits(x[j]) != math.Float64bits(y[j]) {
				return false
			}
		}
	}
	return true
}

func runKernel(cfg config, kc kernelCase) (*report, error) {
	s, setup, err := setupMedian(5, func() (*kernelSUT, error) { return buildKernel(kc, cfg.seed) }, func(*kernelSUT) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if cfg.trace {
		return traceKernel(cfg, s, rep)
	}

	// Closed loop, one caller: a distributed run, then every fourth time
	// the serial oracle, each checked bit for bit.
	n := max(1, int(cfg.budget()/time.Second))
	perWin, serialWin := make([][]float64, 2*n), make([][]float64, 2*n)
	heap, heapWin := startHeapPeak(), make([]float64, 2*n)
	i := 0
	keep, steal := quietWindows(cfg.host, n, func(w int, end time.Time) {
		for ; time.Now().Before(end); i++ {
			start := time.Now()
			got, _, err := s.distributed()
			perWin[w] = append(perWin[w], msSince(start))
			rep.check(err == nil && bitEqual(got, s.oracle), "%s run %d: distributed result differs from the serial replay (err=%v)", kc.name, i, err)
			if i%4 != 0 {
				continue
			}
			start = time.Now()
			got, err = s.serial()
			serialWin[w] = append(serialWin[w], msSince(start))
			rep.check(err == nil && bitEqual(got, s.oracle), "%s run %d: serial replay is not deterministic (err=%v)", kc.name, i, err)
		}
		heapWin[w] = heap.lap()
	})
	heap.Stop()
	lat, serial := gather(perWin, keep), gather(serialWin, keep)
	p50 := median(append([]float64(nil), lat...))
	tailV, beyond := p90(append([]float64(nil), lat...))
	rep.values["setup_s"] = setup
	rep.values["latency_p50_ms"] = p50
	rep.values["latency_tail_ms"] = tailV
	rep.values["throughput_per_s"] = 1e3 / mean(lat)
	rep.values["serial_ms"] = median(serial)
	rep.values["peak_heap_mb"] = windowMedian(heapWin, keep)
	rep.notef("latency_tail_ms is p90 with %d of %d samples beyond it, from the %d quietest one-second windows (host steal %.1f%%)",
		beyond, len(lat), len(keep), 100*steal)
	rep.notef("gflops %.6g GFLOP/s (%.4g flop at p50)", kc.flops/p50/1e6, kc.flops)
	rep.extra["tail_beyond"] = beyond
	return rep, nil
}

// engineBreakdown sums one traced run's engine spans by layer.
type engineBreakdown struct {
	scatter, gather float64 // ms: first send start to last send end, by tag
	bcast, wait     float64 // ms, mean per rank
	compute         float64 // ms, mean per rank
	update, trsm    float64 // ms, mean per rank, by compute label
	panel           float64
	sendUS          []float64
	steps           float64 // ms from rank 0's first step to the gather
}

// window returns the span of the send spans whose tag starts with prefix,
// in seconds of the run's span clock.
func window(spans []obs.Span, prefix string) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, sp := range spans {
		if sp.Kind == obs.SpanSend && strings.HasPrefix(sp.Name, prefix) {
			lo, hi = math.Min(lo, sp.Start), math.Max(hi, sp.End)
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

func breakdown(spans []obs.Span, ranks int) engineBreakdown {
	var b engineBreakdown
	sLo, sHi := window(spans, "scatter/")
	gLo, gHi := window(spans, "gather/")
	b.scatter, b.gather = (sHi-sLo)*1e3, (gHi-gLo)*1e3
	// Step spans close at the next step or at the end of the run, so they
	// are clipped where the gather starts.
	stepTime := make([]float64, ranks)
	covered := make([]float64, ranks)
	firstStep := math.Inf(1)
	for _, sp := range spans {
		d := (sp.End - sp.Start) * 1e3
		switch sp.Kind {
		case obs.SpanStep:
			d = (math.Min(sp.End, gLo) - sp.Start) * 1e3
			stepTime[sp.Rank] += d
			if sp.Rank == 0 {
				firstStep = math.Min(firstStep, sp.Start)
			}
		case obs.SpanPhase:
			b.bcast += d
			covered[sp.Rank] += d
		case obs.SpanCompute:
			b.compute += d
			covered[sp.Rank] += d
			switch {
			case strings.Contains(sp.Name, "update"):
				b.update += d
			case strings.Contains(sp.Name, "solve"):
				b.trsm += d
			case strings.Contains(sp.Name, "factor"):
				b.panel += d
			}
		case obs.SpanSend:
			b.sendUS = append(b.sendUS, (sp.End-sp.Start)*1e6)
		}
	}
	for r := 0; r < ranks; r++ {
		b.wait += math.Max(stepTime[r]-covered[r], 0)
	}
	n := float64(ranks)
	b.bcast, b.wait, b.compute = b.bcast/n, b.wait/n, b.compute/n
	b.update, b.trsm, b.panel = b.update/n, b.trsm/n, b.panel/n
	b.steps = (gLo - firstStep) * 1e3
	return b
}

// gemmBlockGFLOPS times the matrix GEMM alone on r×r blocks.
func gemmBlockGFLOPS(r int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	a, b, c := matrix.Random(r, r, rng), matrix.Random(r, r, rng), matrix.New(r, r)
	calls := max(1, (1<<24)/(r*r*r))
	ns := perOpNS(5, calls, func(int) { c.AddMulNumerics(1, a, b, matrix.Strict) })
	return 2 * float64(r*r*r) / ns
}

func traceKernel(cfg config, s *kernelSUT, rep *report) (*report, error) {
	kc := s.kc
	half := cfg.budget() / 2

	// Untraced half: latency and allocations per distributed run.
	var plain []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for end := time.Now().Add(half); time.Now().Before(end); {
		start := time.Now()
		got, _, err := s.distributed()
		plain = append(plain, msSince(start))
		rep.check(err == nil && bitEqual(got, s.oracle), "%s: distributed result differs from the serial replay (err=%v)", kc.name, err)
	}
	runtime.ReadMemStats(&ms1)

	// Traced half: engine spans plus harness spans around each call.
	tr := newTracer()
	var traced []float64
	var sum engineBreakdown
	var sendUS []float64
	var msgs, bytes, imb, root float64
	_, sub0, inl0, _ := matrix.PoolStats()
	ops := 0
	for end := time.Now().Add(half); time.Now().Before(end); ops++ {
		id := tr.newID()
		start := time.Now()
		got, st, err := s.distributed(hetgrid.WithSpans())
		stop := time.Now()
		tr.add(id, 0, int64(ops), "hetgrid.Distributed", start, stop)
		d := float64(stop.Sub(start).Nanoseconds()) / 1e6
		traced = append(traced, d)
		rep.check(err == nil && bitEqual(got, s.oracle), "%s traced: distributed result differs from the serial replay (err=%v)", kc.name, err)
		if err != nil {
			continue
		}
		b := breakdown(st.Spans, len(st.Ranks))
		sum.scatter += b.scatter
		sum.gather += b.gather
		sum.bcast += b.bcast
		sum.wait += b.wait
		sum.compute += b.compute
		sum.update += b.update
		sum.trsm += b.trsm
		sum.panel += b.panel
		sum.steps += b.steps
		sendUS = append(sendUS, b.sendUS...)
		msgs += float64(st.Messages)
		bytes += float64(st.Bytes)
		imb += st.Imbalance
		root += d
	}
	_, sub1, inl1, _ := matrix.PoolStats()
	// The serial oracle once more under a harness span, for the trace.
	id := tr.newID()
	start := time.Now()
	if _, err := s.serial(); err != nil {
		return nil, err
	}
	tr.add(id, 0, int64(ops), "hetgrid.Serial", start, time.Now())
	if err := tr.write(fmt.Sprintf("%s/spans-%s-seed%d.json", outDir, kc.name, cfg.seed)); err != nil {
		return nil, err
	}

	n := float64(max(ops, 1))
	setPerLayerZero(rep)
	rep.values["engine.messages_per_op"] = msgs / n
	rep.values["engine.bytes_per_op"] = bytes / n
	rep.values["engine.scatter_ms"] = sum.scatter / n
	rep.values["engine.gather_ms"] = sum.gather / n
	rep.values["engine.bcast_ms"] = sum.bcast / n
	rep.values["engine.wait_ms"] = sum.wait / n
	rep.values["engine.send_p50_us"] = median(sendUS)
	rep.values["engine.compute_ms"] = sum.compute / n
	rep.values["engine.imbalance"] = imb / n
	rep.values["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(len(plain), 1))
	rep.values["matrix.update_ms"] = sum.update / n
	rep.values["matrix.trsm_ms"] = sum.trsm / n
	rep.values["matrix.panel_ms"] = sum.panel / n
	rep.values["matrix.gemm_block_gflops"] = gemmBlockGFLOPS(kc.r, cfg.seed)
	rep.values["matrix.flops_per_byte_computed"] = kc.flops / math.Max(bytes/n, 1)
	if tasks := float64(sub1-sub0) + float64(inl1-inl0); tasks > 0 {
		rep.values["matrix.pool_inline_frac"] = float64(inl1-inl0) / tasks
	}
	rep.values["obs.trace_overhead_frac"] = median(traced)/median(plain) - 1
	// The blocking path runs through rank 0, which scatters, steps and
	// gathers in turn.
	layerSum(rep, root, []layerPart{{"scatter", sum.scatter}, {"steps", sum.steps}, {"gather", sum.gather}}, ops, "ms")
	rep.notef("rank-mean step time: compute %.4g ms, bcast %.4g ms, wait %.4g ms per op", sum.compute/n, sum.bcast/n, sum.wait/n)
	return rep, nil
}
