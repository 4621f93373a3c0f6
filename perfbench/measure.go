package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetgrid/internal/obs"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, which it
// sorts in place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentiles are the percentiles latency_tail_ms may report, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tail returns the latency at the highest percentile of tailPercentiles
// that has at least ten samples beyond it, with that percentile and the
// number of samples beyond it.
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return quantile(xs, p/100), p, n - rank
		}
	}
	return quantile(xs, 1), 100, 0
}

// msSince returns the milliseconds since t.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// p90 returns the 90th percentile of xs, which it sorts in place, and the
// number of samples beyond it. The closed-loop workloads report their
// tail there: with one caller and 15 seconds they collect a few hundred
// operations, and a fixed percentile keeps the metric's meaning from
// jumping between runs with different counts.
func p90(xs []float64) (float64, int) {
	return quantile(xs, 0.9), len(xs) - int(math.Ceil(0.9*float64(len(xs))))
}

// setupMedian builds the system under test reps times, tearing down all
// but the last build, and returns the last build with the median build
// time in seconds.
func setupMedian[T any](reps int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var sut T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		s, err := build()
		if err != nil {
			return sut, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(s)
		} else {
			sut = s
		}
	}
	return sut, median(times), nil
}

// heapPeak samples the live heap — what the last garbage collection
// found reachable — every ten milliseconds until stopped, and keeps its
// peak per lap. Unlike the heap's total size, the live heap does not
// depend on when the collector happened to run.
type heapPeak struct {
	stop, done chan struct{}
	mu         sync.Mutex
	peak, last uint64
}

func startHeapPeak() *heapPeak {
	runtime.GC() // so the first sample is not a stale figure from set-up
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			h.last = sample[0].Value.Uint64()
			h.peak = max(h.peak, h.last)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lap returns the peak in MB since the previous lap and starts the next.
func (h *heapPeak) lap() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.peak
	h.peak = h.last
	return float64(v) / (1 << 20)
}

func (h *heapPeak) Stop() {
	close(h.stop)
	<-h.done
}

// maxSteal is the largest share of CPU time the hypervisor may take from
// this machine in a second whose operations count. On a shared 2-vCPU
// host, stretches of 10–20% steal lasting tens of seconds double request
// latencies; 1–3% is the quiet baseline.
const maxSteal = 0.05

// hostCPU returns the steal and total ticks of all CPUs from
// /proc/stat (zeros elsewhere): the time the hypervisor ran something
// else while this machine's CPUs wanted to run.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostMeter samples the machine's cumulative steal and total CPU ticks
// every 100 ms, so a measurement can tell in which seconds the hypervisor
// took CPU time away.
type hostMeter struct {
	stop, done   chan struct{}
	mu           sync.Mutex
	at           []time.Time
	steal, total []uint64
}

func startHostMeter() *hostMeter {
	m := &hostMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *hostMeter) sample() {
	steal, total := hostCPU()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.at = append(m.at, time.Now())
	m.steal = append(m.steal, steal)
	m.total = append(m.total, total)
}

func (m *hostMeter) Stop() {
	close(m.stop)
	<-m.done
}

// frac returns the steal share of CPU time from the last sample at or
// before a to the first sample at or after b.
func (m *hostMeter) frac(a, b time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := max(sort.Search(len(m.at), func(k int) bool { return m.at[k].After(a) })-1, 0)
	j := min(sort.Search(len(m.at), func(k int) bool { return !m.at[k].Before(b) }), len(m.at)-1)
	if j <= i || m.total[j] == m.total[i] {
		return 0
	}
	return float64(m.steal[j]-m.steal[i]) / float64(m.total[j]-m.total[i])
}

// quietWindows calls fill for consecutive one-second windows until n
// windows with at most maxSteal host steal have run, or 2n windows in
// all, and returns the indices of the n quietest windows with the mean
// steal share over them. Windows are chosen by the host's state alone,
// never by what was measured in them.
func quietWindows(host *hostMeter, n int, fill func(w int, end time.Time)) ([]int, float64) {
	type window struct {
		idx   int
		steal float64
	}
	var wins []window
	quiet := 0
	for w := 0; quiet < n && w < 2*n; w++ {
		start := time.Now()
		fill(w, start.Add(time.Second))
		host.sample()
		st := host.frac(start, time.Now())
		if st <= maxSteal {
			quiet++
		}
		wins = append(wins, window{w, st})
	}
	sort.SliceStable(wins, func(a, b int) bool { return wins[a].steal < wins[b].steal })
	wins = wins[:min(n, len(wins))]
	keep := make([]int, len(wins))
	sum := 0.0
	for i, w := range wins {
		keep[i] = w.idx
		sum += w.steal
	}
	return keep, sum / float64(len(wins))
}

// windowMedian returns the median of the kept windows' figures.
func windowMedian(perWin []float64, keep []int) float64 {
	var out []float64
	for _, w := range keep {
		out = append(out, perWin[w])
	}
	return median(out)
}

// gather flattens the kept windows' samples.
func gather(perWin [][]float64, keep []int) []float64 {
	var out []float64
	for _, w := range keep {
		if w < len(perWin) {
			out = append(out, perWin[w]...)
		}
	}
	return out
}

// span is one harness-recorded interval around a call into a layer. Spans
// of one operation share Op; Parent links a span to the call that caused
// it (0 for an operation's root).
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Op      int64   `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps harness spans in memory until the run writes them out. A
// nil *tracer records nothing.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	recs []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.next.Add(1) }

// add records a completed span under a pre-allocated id.
func (t *tracer) add(id, parent, op int64, name string, start, end time.Time) {
	sp := span{ID: id, Parent: parent, Op: op, Name: name,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3}
	t.mu.Lock()
	t.recs = append(t.recs, sp)
	t.mu.Unlock()
}

// spans returns the recorded spans grouped by name.
func (t *tracer) byName() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]span{}
	for _, sp := range t.recs {
		out[sp.Name] = append(out[sp.Name], sp)
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func (s span) durUS() float64 { return s.EndUS - s.StartUS }

// perOpNS times n calls of f and returns the median over reps of the mean
// nanoseconds per call.
func perOpNS(reps, n int, f func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// sinkTime keeps the compiler from dropping the timed time.Now calls.
var sinkTime time.Time

// priceObs prices the instrumentation primitives the way a devel
// benchmark does: a tight loop of one primitive, nanoseconds per call.
func priceObs() map[string]float64 {
	const reps, n = 5, 1 << 16
	reg := obs.NewRegistry()
	ctr := reg.Counter("perfbench_price_total", "", "pricing loop counter")
	hist := reg.Histogram("perfbench_price_seconds", "", "pricing loop histogram", nil)
	return map[string]float64{
		"obs.now_ns": perOpNS(reps, n, func(int) { sinkTime = time.Now() }),
		"obs.span_ns": func() float64 {
			per := make([]float64, reps)
			for r := range per {
				store := obs.NewSpanStore()
				per[r] = perOpNS(1, n, func(int) {
					store.End(store.Begin(0, obs.SpanCompute, "price", 0))
				})
			}
			return median(per)
		}(),
		"obs.counter_ns":   perOpNS(reps, n, func(int) { ctr.Add(1) }),
		"obs.histogram_ns": perOpNS(reps, n, func(i int) { hist.Observe(float64(i&1023) * 1e-6) }),
	}
}

// layerPart is one layer's summed self time along the blocking path.
type layerPart struct {
	name string
	self float64
}

// layerSumTolerance is the largest relative gap between the summed layer
// self times and the traced end-to-end time for which the breakdown is
// reported as valid.
const layerSumTolerance = 0.10

// layerSum reports the per-operation layer self times along the blocking
// path and how far their sum is from the traced end-to-end time; outside
// layerSumTolerance the breakdown is printed as invalid.
func layerSum(rep *report, root float64, parts []layerPart, ops int, unit string) {
	n := float64(max(ops, 1))
	sum := 0.0
	for _, p := range parts {
		sum += p.self
	}
	gap := math.Abs(sum-root) / math.Max(root, 1e-12)
	rep.values["obs.layer_sum_gap_frac"] = gap
	valid := gap <= layerSumTolerance
	rows := map[string]any{}
	for _, p := range parts {
		if valid {
			rep.notef("layer %-10s self %.6g %s/op", p.name, p.self/n, unit)
			rows[p.name] = p.self / n
		} else {
			rep.notef("layer %-10s self invalid (layer sum off by %.1f%%)", p.name, 100*gap)
			rows[p.name] = "invalid"
		}
	}
	rep.notef("layer sum %.6g vs end-to-end %.6g %s/op over %d ops: gap %.2f%% (tolerance %.0f%%, valid=%v)",
		sum/n, root/n, unit, ops, 100*gap, 100*layerSumTolerance, valid)
	rep.extra["layers"] = rows
	rep.extra["layer_sum_valid"] = valid
}

// setPerLayerZero sets every per-layer metric to 0 so a workload only
// fills in the layers it calls.
func setPerLayerZero(rep *report) {
	for _, d := range perLayer {
		rep.values[d.Name] = 0
	}
}
