package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"hetgrid/internal/core"
	"hetgrid/internal/grid"
	"hetgrid/internal/plan"
)

// exact-3x4: exact 3×4 plan requests, each a fresh cycle-time vector, so
// every request misses the cache and the branch-and-bound search does
// nearly all of the work.

// defaultCacheEntries is the capacity of hetgridd's default plan cache.
const defaultCacheEntries = 1024

// exactReq draws a fresh 3×4 cycle-time vector.
func exactReq(rng *rand.Rand) plan.Request {
	times := make([]float64, 12)
	for i := range times {
		times[i] = 1 + 9*rng.Float64()
	}
	return plan.Request{Times: times, P: 3, Q: 4, Strategy: plan.StrategyExact, Kernel: plan.LU, Panel: &plan.PanelSpec{}}
}

// checkExact validates a served exact plan: it satisfies its own
// load-balance constraints and is never worse than the heuristic.
func checkExact(rep *report, req plan.Request, r reply, err error) *plan.Plan {
	if err != nil || r.status != http.StatusOK || r.hit {
		rep.check(false, "exact-3x4: request failed or was a cache hit (err=%v status=%d)", err, r.status)
		return nil
	}
	var p plan.Plan
	if err := json.Unmarshal(r.body, &p); err != nil {
		rep.check(false, "exact-3x4: undecodable plan: %v", err)
		return nil
	}
	arr, err := grid.New(p.Arrangement)
	var sol *core.Solution
	if err == nil {
		sol, err = core.NewSolution(arr, p.RowShares, p.ColShares)
	}
	if err != nil || !sol.Feasible(0) {
		rep.check(false, "exact-3x4: plan fails Verify: %v", err)
		return nil
	}
	h := req.Quantized(plan.DefaultQuantDigits)
	h.Strategy = plan.StrategyHeuristic
	hr, err := plan.Solve(h)
	rep.check(err == nil && p.Objective >= hr.Plan.Objective*(1-1e-12),
		"exact-3x4: exact objective %v below heuristic %v", p.Objective, objectiveOf(hr))
	return &p
}

func objectiveOf(r *plan.Result) float64 {
	if r == nil {
		return math.NaN()
	}
	return r.Plan.Objective
}

func runExact(cfg config) (*report, error) {
	h, setup, err := setupMedian(3, func() (*httpSUT, error) {
		h, err := startHTTP(1)
		if err != nil {
			return nil, err
		}
		// Fill the cache with heuristic 3×4 plans, as a service that has
		// been serving finds it, so that each measured insert evicts one
		// plan of the same shape and the heap holds steady. An empty cache
		// would grow through the whole run by however many plans the
		// host's speed allowed.
		rng := rand.New(rand.NewSource(cfg.seed - 1))
		var buf bytes.Buffer
		for i := 0; h.srv.Cache().Len() < defaultCacheEntries && i < 4*defaultCacheEntries; i++ {
			r, err := h.post(h.clients[0], &buf, planBody(exactReq(rng).Times, 3, 4, plan.StrategyHeuristic), nil, 0)
			if err == nil && r.status != http.StatusOK {
				err = fmt.Errorf("cache fill request: HTTP %d", r.status)
			}
			if err != nil {
				h.close()
				return nil, err
			}
		}
		// Warm the connection and the solver's code paths.
		for i := 0; i < 2; i++ {
			if _, err := h.post(h.clients[0], &buf, planBody(exactReq(rng).Times, 3, 4, plan.StrategyExact), nil, 0); err != nil {
				h.close()
				return nil, err
			}
		}
		return h, nil
	}, (*httpSUT).close)
	if err != nil {
		return nil, err
	}
	defer h.close()
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	var buf bytes.Buffer

	// one runs a request, returning its latency in ms and the served plan.
	one := func(tr *tracer, op int64) (plan.Request, reply, float64, error) {
		req := exactReq(rng)
		body := planBody(req.Times, 3, 4, plan.StrategyExact)
		start := time.Now()
		r, err := h.post(h.clients[0], &buf, body, tr, op)
		return req, r, msSince(start), err
	}

	if cfg.trace {
		return traceExact(cfg, h, rep, one)
	}

	n := max(1, int(cfg.budget()/time.Second))
	perWin, serialWin := make([][]float64, 2*n), make([][]float64, 2*n)
	heap, heapWin := startHeapPeak(), make([]float64, 2*n)
	i := 0
	keep, steal := quietWindows(cfg.host, n, func(w int, end time.Time) {
		for ; time.Now().Before(end); i++ {
			req, r, ms, err := one(nil, 0)
			perWin[w] = append(perWin[w], ms)
			if checkExact(rep, req, r, err) == nil || i%2 != 0 {
				continue
			}
			// Every second plan: the single-threaded plan.Solve oracle,
			// timed, must produce the served bytes.
			q := req
			q.Workers = 1
			start := time.Now()
			want, err := oracleBody(q)
			serialWin[w] = append(serialWin[w], msSince(start))
			rep.check(err == nil && bytes.Equal(r.body, want), "exact-3x4 request %d: response differs from the plan.Solve oracle", i)
		}
		heapWin[w] = heap.lap()
	})
	heap.Stop()
	lat, serial := gather(perWin, keep), gather(serialWin, keep)
	tailV, beyond := p90(append([]float64(nil), lat...))
	rep.values["setup_s"] = setup
	rep.values["latency_p50_ms"] = median(append([]float64(nil), lat...))
	rep.values["latency_tail_ms"] = tailV
	rep.values["throughput_per_s"] = 1e3 / mean(lat)
	rep.values["serial_ms"] = median(serial)
	rep.values["peak_heap_mb"] = windowMedian(heapWin, keep)
	rep.notef("latency_tail_ms is p90 with %d of %d samples beyond it, from the %d quietest one-second windows (host steal %.1f%%)",
		beyond, len(lat), len(keep), 100*steal)
	rep.notef("plans_per_s %.6g 1/s (one closed-loop client, request time only)", rep.values["throughput_per_s"])
	rep.extra["tail_beyond"] = beyond
	return rep, nil
}

func traceExact(cfg config, h *httpSUT, rep *report, one func(*tracer, int64) (plan.Request, reply, float64, error)) (*report, error) {
	half := time.Now().Add(cfg.budget() / 2)
	var plain []float64
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	for time.Now().Before(half) {
		runtime.ReadMemStats(&ms0)
		req, r, ms, err := one(nil, 0)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		plain = append(plain, ms)
		checkExact(rep, req, r, err)
	}

	// Each traced request's plan.Solve and core.SolveGlobalExactOpt are
	// replayed right after it, each call followed by the same check the
	// served request was followed by, so the replays find the heap and
	// caches as the served solve did, and the host at the same speed,
	// which drifts by tens of percent within a minute. The parallel
	// solver's time on one input differs by up to 2× from call to call,
	// so the layer split uses every request of the pass.
	timeUS := func(f func() error) (float64, error) {
		start := time.Now()
		err := f()
		return float64(time.Since(start).Nanoseconds()) / 1e3, err
	}
	tr := newTracer()
	h.tr.Store(tr)
	type served struct {
		req            plan.Request
		plan           *plan.Plan
		body           []byte
		planUS, coreUS float64
	}
	var ops []served
	var traced []float64
	before := h.srv.Cache().Stats()
	end := time.Now().Add(cfg.budget())
	for op := int64(0); time.Now().Before(end); op++ {
		req, r, ms, err := one(tr, op)
		traced = append(traced, ms)
		s := served{req: req, plan: checkExact(rep, req, r, err), body: append([]byte(nil), r.body...)}
		if s.plan != nil {
			q := req.Quantized(plan.DefaultQuantDigits)
			if s.planUS, err = timeUS(func() error { _, err := plan.Solve(q); return err }); err != nil {
				return nil, err
			}
			checkExact(rep, req, reply{status: http.StatusOK, body: s.body}, nil)
			if s.coreUS, err = timeUS(func() error { _, _, err := core.SolveGlobalExactOpt(q.Times, 3, 4, core.ExactOptions{}); return err }); err != nil {
				return nil, err
			}
			checkExact(rep, req, reply{status: http.StatusOK, body: s.body}, nil)
		}
		ops = append(ops, s)
	}
	h.tr.Store(nil)
	after := h.srv.Cache().Stats()

	spans := tr.byName()
	handler := map[int64]float64{}
	for _, sp := range spans["service.ServeHTTP"] {
		handler[sp.Op] = sp.durUS()
	}
	type sample struct {
		s    served
		r, h float64 // round trip and handler, us
	}
	var rtt, over, hUS []float64
	var trees, arrs, theo float64
	var replay []sample
	for _, sp := range spans["http.roundtrip"] {
		hd, ok := handler[sp.Op]
		s := ops[sp.Op]
		if !ok || s.plan == nil || s.plan.Provenance.Solver == nil {
			continue
		}
		r := sp.durUS()
		rtt = append(rtt, r)
		over = append(over, r-hd)
		hUS = append(hUS, hd)
		st := s.plan.Provenance.Solver
		trees += float64(st.TreesVisited)
		arrs += float64(st.Arrangements)
		theo += float64(st.TreesTheoretical)
		replay = append(replay, sample{s, r, hd})
	}

	// The service's own cost is the handler time of the same requests
	// sent again, now cache hits.
	hits := newTracer()
	h.tr.Store(hits)
	var buf bytes.Buffer
	for i, x := range replay {
		r, err := h.post(h.clients[0], &buf, planBody(x.s.req.Times, 3, 4, plan.StrategyExact), hits, int64(i))
		rep.check(err == nil && r.hit && bytes.Equal(r.body, x.s.body), "exact-3x4: repeated request %d was not the cached plan", i)
	}
	h.tr.Store(nil)
	var hitUS []float64
	for _, sp := range hits.byName()["service.ServeHTTP"] {
		hitUS = append(hitUS, sp.durUS())
	}
	if err := tr.write(fmt.Sprintf("%s/spans-exact-3x4-seed%d.json", outDir, cfg.seed)); err != nil {
		return nil, err
	}

	svc := median(append([]float64(nil), hitUS...))
	var planOver []float64
	var sumRoot, sumHTTP, sumPlan, sumCore float64
	var planUS, coreMS []float64
	for _, x := range replay {
		planUS = append(planUS, x.s.planUS)
		coreMS = append(coreMS, x.s.coreUS/1e3)
		planOver = append(planOver, (x.s.planUS-x.s.coreUS)/1e3)
		sumRoot += x.r
		sumHTTP += x.r - x.h
		sumPlan += x.s.planUS - x.s.coreUS
		sumCore += x.s.coreUS
	}
	n := float64(max(len(rtt), 1))
	gets := float64(after.Gets - before.Gets)
	setPerLayerZero(rep)
	rep.values["http.roundtrip_p50_us"] = median(rtt)
	rep.values["http.overhead_p50_us"] = median(over)
	rep.values["service.handler_hit_p50_us"] = svc
	rep.values["service.handler_miss_p50_us"] = median(hUS)
	rep.values["service.overhead_p50_us"] = svc
	rep.values["plancache.hit_ratio"] = float64(after.Hits-before.Hits) / math.Max(gets, 1)
	rep.values["plancache.evictions_per_kreq"] = float64(after.Evictions-before.Evictions) / math.Max(gets/1000, 1e-9)
	rep.values["plancache.shared_per_kreq"] = float64(after.Shared-before.Shared) / math.Max(gets/1000, 1e-9)
	rep.values["plan.solve_p50_us"] = median(planUS)
	rep.values["runtime.allocs_per_op"] = float64(mallocs) / float64(max(len(plain), 1))
	rep.values["plan.overhead_p50_ms"] = median(planOver)
	rep.values["core.exact_p50_ms"] = median(coreMS)
	rep.values["core.trees_visited_per_plan"] = trees / n
	rep.values["core.arrangements_per_plan"] = arrs / n
	rep.values["core.prune_ratio"] = 1 - trees/math.Max(theo, 1)
	rep.values["obs.trace_overhead_frac"] = median(traced)/median(plain) - 1
	layerSum(rep, sumRoot, []layerPart{{"http", sumHTTP}, {"service", svc * float64(len(replay))}, {"plan", sumPlan}, {"core", sumCore}}, len(replay), "us")
	return rep, nil
}
