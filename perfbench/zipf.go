package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hetgrid/internal/plan"
)

// serve-zipf: heuristic 2×3 plan requests with Zipf(1.1)-popular keys over
// a key space 64 times the default cache.
//
// The end-to-end figures come from a closed loop: the two client
// connections send back to back. An open loop paced at sub-millisecond
// intervals leaves the vCPUs halting between requests, and on a shared
// 2-vCPU host every wake-up then waits on the hypervisor: host steal
// during such a loop runs at 5–25% against 0–5% for the closed loop, and
// its latencies swing with it. The open-loop figures — latency from the
// due time at a fixed rate, the highest rate meeting a p99 limit, and the
// generator's lag — are still measured and printed, but not gated.

const (
	zipfKeys = 65536
	zipfS    = 1.1
	// openRate is the offered rate of the open-loop latency pass.
	openRate = 4000.0
	// sloMS is the p99 limit of the open-loop max_rps search. The 1 ms a
	// dedicated host allows is below the scheduling floor of a 2-vCPU VM,
	// where the generator alone runs 1–4 ms late at p99.
	sloMS = 20.0
	// checkEvery samples one response in checkEvery for the byte-identity
	// check against the oracle.
	checkEvery = 16
)

// zipfSUT holds the key space pointer-free (flat cycle-times and one
// buffer of request bodies), so the garbage collector never scans it.
type zipfSUT struct {
	*httpSUT
	times  []float64 // 6 per key
	bodies []byte
	offs   []int32 // key k's body is bodies[offs[k]:offs[k+1]]
	// keys[c] is client c's key stream, sample[c] its check sampler;
	// keys[len(clients)] feeds the open loop.
	keys   []*rand.Zipf
	sample []*rand.Rand
}

func (z *zipfSUT) req(k int) plan.Request {
	return plan.Request{Times: append([]float64(nil), z.times[6*k:6*k+6]...), P: 2, Q: 3,
		Strategy: plan.StrategyHeuristic, Kernel: plan.LU, Panel: &plan.PanelSpec{}}
}

func (z *zipfSUT) body(k int) []byte { return z.bodies[z.offs[k]:z.offs[k+1]] }

func buildZipf(seed int64) (*zipfSUT, error) {
	rng := rand.New(rand.NewSource(seed))
	z := &zipfSUT{times: make([]float64, 6*zipfKeys), offs: make([]int32, 1, zipfKeys+1)}
	for i := range z.times {
		z.times[i] = 1 + 9*rng.Float64()
	}
	for k := 0; k < zipfKeys; k++ {
		z.bodies = append(z.bodies, planBody(z.times[6*k:6*k+6], 2, 3, plan.StrategyHeuristic)...)
		z.offs = append(z.offs, int32(len(z.bodies)))
	}
	h, err := startHTTP(2)
	if err != nil {
		return nil, err
	}
	z.httpSUT = h
	for c := 0; c <= len(h.clients); c++ {
		z.keys = append(z.keys, rand.NewZipf(rand.New(rand.NewSource(seed+1+int64(c))), zipfS, 1, zipfKeys-1))
		z.sample = append(z.sample, rand.New(rand.NewSource(seed+100+int64(c))))
	}
	// Fill the cache before timing: 4096 requests from the open loop's
	// stream.
	var buf bytes.Buffer
	for i := 0; i < 4096; i++ {
		r, err := z.post(z.clients[i%2], &buf, z.body(int(z.keys[len(h.clients)].Uint64())), nil, 0)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("warm-up request: HTTP %d", r.status)
		}
		if err != nil {
			z.close()
			return nil, err
		}
	}
	return z, nil
}

// zipfOp is one request of a pass.
type zipfOp struct {
	op  int64
	key int
	ms  float64
	hit bool
}

// passResult is one pass of requests.
type passResult struct {
	ops     []zipfOp
	failed  int
	sampled map[int64][sha256.Size]byte // op → response body digest, for the oracle check
	elapsed time.Duration
}

// closedLoop sends requests back to back on every client connection
// until end. Op numbers come from next, so traced passes can key spans.
func (z *zipfSUT) closedLoop(end time.Time, tr *tracer, next *atomic.Int64) *passResult {
	res := &passResult{sampled: map[int64][sha256.Size]byte{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range z.clients {
		wg.Add(1)
		go func(c int, cl *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(end) {
				op := next.Add(1) - 1
				key := int(z.keys[c].Uint64())
				keep := z.sample[c].Intn(checkEvery) == 0
				t := time.Now()
				r, err := z.post(cl, &buf, z.body(key), tr, op)
				ms := msSince(t)
				mu.Lock()
				if err != nil || r.status != http.StatusOK {
					res.failed++
				} else {
					res.ops = append(res.ops, zipfOp{op, key, ms, r.hit})
					if keep {
						res.sampled[op] = sha256.Sum256(r.body)
					}
				}
				mu.Unlock()
			}
		}(c, cl)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// checkSampled compares every sampled response with its oracle, counts
// every request of the pass, and returns the oracle's time in ms for each
// distinct sampled key: the fastest of three calls, so that a stall of
// the host does not count, and one figure per key, so that the few most
// popular keys do not decide it.
func (z *zipfSUT) checkSampled(rep *report, r *passResult) []float64 {
	rep.attempted += len(r.ops) + r.failed - len(r.sampled)
	rep.failed += r.failed
	keyOf := map[int64]int{}
	for _, o := range r.ops {
		keyOf[o.op] = o.key
	}
	var ms []float64
	oracle := map[int][sha256.Size]byte{}
	for op, got := range r.sampled {
		k := keyOf[op]
		want, ok := oracle[k]
		if !ok {
			best := math.Inf(1)
			for try := 0; try < 3; try++ {
				start := time.Now()
				body, err := oracleBody(z.req(k))
				best = math.Min(best, msSince(start))
				if err != nil {
					rep.notef("serve-zipf key %d: oracle failed: %v", k, err)
				}
				want = sha256.Sum256(body)
			}
			ms = append(ms, best)
			oracle[k] = want
		}
		rep.check(got == want, "serve-zipf request %d: response differs from the plan.Solve oracle", op)
	}
	return ms
}

// olResult is one open-loop pass; the slices are indexed by request
// number.
type olResult struct {
	latMS    []float64 // completion minus due time
	lagMS    []float64 // generator dispatch minus due time
	sent     []bool
	failed   int
	rate     float64 // offered requests per second
	achieved float64 // completed requests per second of the pass
	aborted  bool
}

// sentLat returns the latencies of the requests that were sent.
func (r *olResult) sentLat() []float64 {
	var out []float64
	for i, ok := range r.sent {
		if ok {
			out = append(out, r.latMS[i])
		}
	}
	return out
}

func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// passes reports whether the pass met the latency limit at its p99
// without a growing backlog: it completed at least 97% of the offered
// rate.
func (r *olResult) passes() bool {
	return !r.aborted && r.failed == 0 && p99(r.sentLat()) <= sloMS && r.achieved >= 0.97*r.rate
}

// openLoop offers requests at a fixed rate for dur over the client
// connections, timing each from when it was due. With abortAfter > 0 it
// stops early once that many requests missed the latency limit.
func (z *zipfSUT) openLoop(rate float64, dur time.Duration, abortAfter int) *olResult {
	n := max(1, int(rate*dur.Seconds()))
	res := &olResult{latMS: make([]float64, n), lagMS: make([]float64, n), sent: make([]bool, n), rate: rate}
	keys := make([]int, n)
	for i := range keys {
		keys[i] = int(z.keys[len(z.clients)].Uint64())
	}
	period := time.Duration(float64(time.Second) / rate)
	jobs := make(chan int, n) // sized to the number of sends
	var late atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	var lastDone time.Time
	completed := 0
	for _, c := range z.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range jobs {
				if stop.Load() {
					continue
				}
				due := start.Add(time.Duration(i) * period)
				r, err := z.post(c, &buf, z.body(keys[i]), nil, 0)
				end := time.Now()
				lat := float64(end.Sub(due).Nanoseconds()) / 1e6
				if lat > sloMS && abortAfter > 0 && int(late.Add(1)) >= abortAfter {
					stop.Store(true)
				}
				mu.Lock()
				res.latMS[i], res.sent[i] = lat, true
				completed++
				if end.After(lastDone) {
					lastDone = end
				}
				if err != nil || r.status != http.StatusOK {
					res.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	for i := 0; i < n && !stop.Load(); i++ {
		due := start.Add(time.Duration(i) * period)
		preciseSleepUntil(due)
		res.lagMS[i] = msSince(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.aborted = stop.Load()
	if el := lastDone.Sub(start).Seconds(); el > 0 {
		res.achieved = float64(completed) / el
	}
	return res
}

// preciseSleepUntil blocks the calling thread in nanosleep until t. The
// runtime's timers wake sleepers at millisecond granularity, which would
// make an open loop at hundreds of microseconds per request send bursts.
func preciseSleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes the request late, which lag records
	}
}

// bisectionStep offers rate in separate windows of dur/3 until two
// windows the host left quiet agree, and reports the verdict with the
// median achieved rate of the passing windows. Windows with more than
// maxSteal host steal vote only when five windows brought no verdict.
func (z *zipfSUT) bisectionStep(rep *report, host *hostMeter, rate float64, dur time.Duration) (bool, float64) {
	var pass, fail, noisyPass, noisyFail int
	var achieved, noisyAchieved []float64
	for w := 0; w < 5 && pass < 2 && fail < 2; w++ {
		start := time.Now()
		r := z.openLoop(rate, dur/3, int(rate*dur.Seconds()/300)+1)
		host.sample()
		steal := host.frac(start, time.Now())
		lat := r.sentLat()
		rep.attempted += len(lat)
		rep.failed += r.failed
		ok := r.passes()
		switch {
		case steal > maxSteal && ok:
			noisyPass++
			noisyAchieved = append(noisyAchieved, r.achieved)
		case steal > maxSteal:
			noisyFail++
		case ok:
			pass++
			achieved = append(achieved, r.achieved)
		default:
			fail++
		}
	}
	if pass < 2 && fail < 2 {
		pass, fail = pass+noisyPass, fail+noisyFail
		achieved = append(achieved, noisyAchieved...)
	}
	return pass > fail, median(achieved)
}

// openLoopFigures measures the open-loop figures the gate does not use:
// latency from the due time at openRate, and max_rps, the highest offered
// rate whose p99 stays within sloMS without a growing backlog, found by a
// fixed geometric bisection of [1000, 16000] req/s to 2% resolution.
func (z *zipfSUT) openLoopFigures(rep *report, host *hostMeter, dur time.Duration) {
	r := z.openLoop(openRate, dur/4, 0)
	rep.attempted += len(r.sentLat())
	rep.failed += r.failed
	lat := r.sentLat()
	v, pct, beyond := tail(append([]float64(nil), lat...))
	rep.notef("open loop at %.0f req/s: latency from due time p50 %.4g ms, p%g %.4g ms (%d of %d beyond), generator lag p99 %.4g ms",
		openRate, median(append([]float64(nil), lat...)), pct, v, beyond, len(lat), p99(r.lagMS))
	lo, hi := 1000.0, 16000.0
	step := dur * 3 / 4 / 8
	maxRPS := 0.0
	for hi/lo > 1.02 {
		mid := math.Sqrt(lo * hi)
		if pass, achieved := z.bisectionStep(rep, host, mid, step); pass {
			lo, maxRPS = mid, achieved
		} else {
			hi = mid
		}
	}
	rep.notef("max_rps %.6g 1/s (open loop, p99 from due time <= %g ms, achieved >= 97%% of offered; 0 = below 1000 req/s)", maxRPS, sloMS)
	rep.extra["max_rps"] = maxRPS
}

func runServeZipf(cfg config) (*report, error) {
	z, setup, err := setupMedian(5, func() (*zipfSUT, error) { return buildZipf(cfg.seed) }, (*zipfSUT).close)
	if err != nil {
		return nil, err
	}
	defer z.close()
	rep := newReport()
	if cfg.trace {
		return traceServeZipf(cfg, z, rep)
	}

	// Gated figures: the closed loop in one-second windows, over the
	// quietest 70% of the budget.
	n := max(1, int(cfg.budget()*7/10/time.Second))
	passes := make([]*passResult, 2*n)
	var next atomic.Int64
	heap, heapWin := startHeapPeak(), make([]float64, 2*n)
	keep, steal := quietWindows(cfg.host, n, func(w int, end time.Time) {
		passes[w] = z.closedLoop(end, nil, &next)
		heapWin[w] = heap.lap()
	})
	heap.Stop()
	var serial []float64
	for _, r := range passes {
		if r != nil {
			serial = append(serial, z.checkSampled(rep, r)...)
		}
	}
	// The tail and the rate are medians over the kept windows, so that one
	// window with a long stall of the host does not decide them. The tail
	// is each window's p90: about a third of the requests miss the cache,
	// so p90 is a miss — HTTP, service and plan.Solve — while p99 is set
	// by garbage-collection and scheduler stalls of the shared host and
	// spreads about twice as far between runs of the same code.
	var lat, tails, rates []float64
	for _, w := range keep {
		var win []float64
		for _, o := range passes[w].ops {
			win = append(win, o.ms)
		}
		lat = append(lat, win...)
		tails = append(tails, quantile(append([]float64(nil), win...), 0.9))
		rates = append(rates, float64(len(win))/passes[w].elapsed.Seconds())
	}
	z.openLoopFigures(rep, cfg.host, cfg.budget()*3/10)

	st := z.srv.Cache().Stats()
	rep.values["setup_s"] = setup
	rep.values["latency_p50_ms"] = median(append([]float64(nil), lat...))
	rep.values["latency_tail_ms"] = median(tails)
	rep.values["throughput_per_s"] = median(rates)
	rep.values["serial_ms"] = mean(serial)
	rep.values["peak_heap_mb"] = windowMedian(heapWin, keep)
	rep.notef("closed loop, %d connections: latency_tail_ms is the median over the %d quietest one-second windows (host steal %.1f%%) of each window's p90, about %d samples beyond it of %d",
		len(z.clients), len(keep), 100*steal, len(lat)/len(keep)/10, len(lat)/len(keep))
	rep.notef("serial_ms is the mean over %d distinct keys of the fastest of three plan.Solve calls", len(serial))
	rep.notef("cache hit ratio %.4f over %d gets", float64(st.Hits)/float64(max(st.Gets, 1)), st.Gets)
	rep.extra["tail_percentile"] = 90
	return rep, nil
}

func traceServeZipf(cfg config, z *zipfSUT, rep *report) (*report, error) {
	half := cfg.budget() * 2 / 5
	var next atomic.Int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := z.closedLoop(time.Now().Add(half), nil, &next)
	runtime.ReadMemStats(&ms1)
	z.checkSampled(rep, plain)

	tr := newTracer()
	before := z.srv.Cache().Stats()
	z.tr.Store(tr)
	traced := z.closedLoop(time.Now().Add(half), tr, &next)
	z.tr.Store(nil)
	after := z.srv.Cache().Stats()
	z.checkSampled(rep, traced)
	lag := z.openLoop(openRate, cfg.budget()/5, 0)
	rep.attempted += len(lag.sentLat())
	rep.failed += lag.failed
	if err := tr.write(fmt.Sprintf("%s/spans-serve-zipf-seed%d.json", outDir, cfg.seed)); err != nil {
		return nil, err
	}

	// Pair each request's round trip with its handler span, and replay
	// plan.Solve on every miss to time the solve layer on its own.
	spans := tr.byName()
	handler := map[int64]float64{}
	for _, sp := range spans["service.ServeHTTP"] {
		handler[sp.Op] = sp.durUS()
	}
	byOp := map[int64]zipfOp{}
	for _, o := range traced.ops {
		byOp[o.op] = o
	}
	var rtt, over, hitUS, missUS, solveUS, tracedMS []float64
	var sumRoot, sumHTTP, sumPlan float64
	for _, sp := range spans["http.roundtrip"] {
		h, okH := handler[sp.Op]
		o, okO := byOp[sp.Op]
		if !okH || !okO {
			continue
		}
		r := sp.durUS()
		rtt = append(rtt, r)
		over = append(over, r-h)
		tracedMS = append(tracedMS, o.ms)
		solve := 0.0
		if o.hit {
			hitUS = append(hitUS, h)
		} else {
			missUS = append(missUS, h)
			q := z.req(o.key).Quantized(plan.DefaultQuantDigits)
			start := time.Now()
			if _, err := plan.Solve(q); err != nil {
				return nil, err
			}
			solve = float64(time.Since(start).Nanoseconds()) / 1e3
			solveUS = append(solveUS, solve)
		}
		sumRoot += r
		sumHTTP += r - h
		sumPlan += solve
	}
	var plainMS []float64
	for _, o := range plain.ops {
		plainMS = append(plainMS, o.ms)
	}
	gets := float64(after.Gets - before.Gets)
	kreq := math.Max(gets/1000, 1e-9)
	setPerLayerZero(rep)
	rep.values["http.roundtrip_p50_us"] = median(rtt)
	rep.values["http.overhead_p50_us"] = median(over)
	rep.values["service.handler_hit_p50_us"] = median(hitUS)
	rep.values["service.handler_miss_p50_us"] = median(missUS)
	rep.values["plancache.hit_ratio"] = float64(after.Hits-before.Hits) / math.Max(gets, 1)
	rep.values["plancache.evictions_per_kreq"] = float64(after.Evictions-before.Evictions) / kreq
	rep.values["plancache.shared_per_kreq"] = float64(after.Shared-before.Shared) / kreq
	rep.values["plan.solve_p50_us"] = median(solveUS)
	rep.values["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(len(plain.ops), 1))
	rep.notef("generator lag p99 %.4g ms (open loop at %.0f req/s)", p99(lag.lagMS), openRate)
	rep.values["obs.trace_overhead_frac"] = median(tracedMS)/median(plainMS) - 1
	// The service's own cost on every request is the handler time of a
	// hit; a miss adds the replayed plan.Solve.
	svc := median(append([]float64(nil), hitUS...))
	layerSum(rep, sumRoot, []layerPart{{"http", sumHTTP}, {"service", svc * float64(len(rtt))}, {"plan", sumPlan}}, len(rtt), "us")
	return rep, nil
}
