// Command perfbench is hetgrid's benchmark. One process runs one workload
// for a fixed time from a seed, checks every output against the program's
// own oracles, and prints one JSON result line last on standard output.
// From the repository root:
//
//	python3 perfbench/run.py --workload exact-3x4 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer breakdown, taken from a separate traced pass.
// --smoke runs every workload BENCHMARK.json lists briefly in both modes
// and checks that every metric it names is printed with its unit. Spans
// and the full result, with machine context, are written under
// .bench_build/perfbench.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"hetgrid/internal/matrix"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	host     *hostMeter
}

func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// report is what a workload measured.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
	extra             map[string]any
}

func newReport() *report { return &report{values: map[string]float64{}, extra: map[string]any{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one checked operation and records a failure with its reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			r.notef("FAILED: "+format, args...)
		}
	}
}

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"serial_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, on every workload; a layer a
// workload never calls reads 0 there.
var perLayer = []metricDef{
	{"http.roundtrip_p50_us", "us"},
	{"http.overhead_p50_us", "us"},
	{"service.handler_hit_p50_us", "us"},
	{"service.handler_miss_p50_us", "us"},
	{"service.overhead_p50_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.evictions_per_kreq", "1/kreq"},
	{"plancache.shared_per_kreq", "1/kreq"},
	{"plan.solve_p50_us", "us"},
	{"plan.overhead_p50_ms", "ms"},
	{"core.exact_p50_ms", "ms"},
	{"core.trees_visited_per_plan", "count"},
	{"core.arrangements_per_plan", "count"},
	{"core.prune_ratio", "ratio"},
	{"engine.messages_per_op", "count"},
	{"engine.bytes_per_op", "B"},
	{"engine.scatter_ms", "ms"},
	{"engine.gather_ms", "ms"},
	{"engine.bcast_ms", "ms"},
	{"engine.wait_ms", "ms"},
	{"engine.send_p50_us", "us"},
	{"engine.compute_ms", "ms"},
	{"engine.imbalance", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"matrix.update_ms", "ms"},
	{"matrix.trsm_ms", "ms"},
	{"matrix.panel_ms", "ms"},
	{"matrix.gemm_block_gflops", "GFLOP/s"},
	{"matrix.flops_per_byte_computed", "flop/B"},
	{"matrix.pool_inline_frac", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
	{"obs.layer_sum_gap_frac", "ratio"},
	{"obs.now_ns", "ns"},
	{"obs.span_ns", "ns"},
	{"obs.counter_ns", "ns"},
	{"obs.histogram_ns", "ns"},
}

// workloads maps each workload name to its runner. serve-zipf runs and
// checks its outputs like the others but is not among BENCHMARK.json's
// workloads: on a shared 2-vCPU host its figures drift by 20–50% over a
// few minutes, past the largest bound the benchmark may set, while the
// three listed workloads stay within it. The layers it isolates —
// http, service and plancache — are still measured on exact-3x4.
var workloads = map[string]func(config) (*report, error){
	"serve-zipf":      runServeZipf,
	"exact-3x4":       runExact,
	"factor-fine":     runFactorFine,
	"multiply-coarse": runMultiplyCoarse,
}

// outDir holds spans and full results; it is inside the checkout and
// ignored by git.
const outDir = ".bench_build/perfbench"

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var smoke bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve-zipf, exact-3x4, factor-fine or multiply-coarse")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.BoolVar(&smoke, "smoke", false, "run every workload briefly in both modes and check the printed metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench smoke: ok")
		return
	}
	line, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload and renders its result line, after printing
// the human-readable notes and writing the full result file.
func runOne(cfg config) (*resultLine, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	cfg.host = startHostMeter()
	rep, err := run(cfg)
	cfg.host.Stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for k, v := range priceObs() {
			rep.values[k] = v
		}
	}
	line := &resultLine{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", cfg.workload, d.Name)
		}
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}

	ctx := machineContext(cfg)
	ctx["host_steal_frac"] = cfg.host.frac(time.Time{}, time.Now())
	fmt.Printf("context %s\n", mustJSON(ctx))
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	failedFrac := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("failed_frac %.6g ratio (%d of %d)\n", failedFrac, rep.failed, rep.attempted)
	names := make([]string, 0, len(line.Metrics))
	for k := range line.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %.6g %s\n", k, line.Metrics[k].Value, line.Metrics[k].Unit)
	}
	full := map[string]any{"context": ctx, "result": line, "failed_frac": failedFrac, "notes": rep.notes, "detail": rep.extra}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace)))
	if err := os.WriteFile(path, mustJSON(full), 0o644); err != nil {
		return nil, err
	}
	return line, nil
}

// machineContext records what a result was measured on.
func machineContext(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"cpu_model":      cpuModel(),
		"fast_available": matrix.FastAvailable(),
		"commit":         commit,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runSmoke runs every workload for one second in both modes and checks
// the printed metrics against BENCHMARK.json's names and units.
func runSmoke() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			line, err := runOne(config{workload: w.Name, seed: 1, seconds: 1, trace: trace})
			if err != nil {
				return err
			}
			if !line.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.Name, line.Failed, line.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					return fmt.Errorf("%s trace=%v: metric %s: got %+v, want unit %s", w.Name, trace, d.Name, got, d.Unit)
				}
			}
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
