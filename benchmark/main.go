// Command benchmark is the repository's one benchmark: four workloads, five
// end-to-end metrics per workload from an untraced run, and a per-layer
// table from a separate traced run plus a single-goroutine ladder that
// replays the workload's statements through successively deeper exported
// entry points. It measures every layer from outside — timing calls into
// exported functions and reading exported counters — and checks every
// answer it times. README.md in this directory says why each workload
// exists and how to read the output; BENCHMARK.json at the repository root
// names the metrics and their bounds.
//
//	go run ./benchmark                       # all workloads, 30 s each, everything
//	go run ./benchmark -workload storage_tpcc -seconds 10 -trace 0
//	go run ./benchmark -repeat 5 -seconds 10 # spread of each metric against its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec names one metric and its unit. BENCHMARK.json carries the same
// names with their direction and bound; the smoke test keeps the two in
// step.
type spec struct{ name, unit string }

var endToEnd = []spec{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p95_us", "us"},
	{"setup_s", "s"},
}

var perLayer = []spec{
	{"server.self_us", "us"},
	{"wire.codec_us", "us"},
	{"client.sign_verify_us", "us"},
	{"portal.self_us", "us"},
	{"portal.sign_us", "us"},
	{"portal.cache_evictions_per_kop", "count"},
	{"portal.cache_bytes", "bytes"},
	{"govern.shed_share", "ratio"},
	{"sql.parse_us", "us"},
	{"sql.normalize_us", "us"},
	{"plan.plan_us", "us"},
	{"plan.cache_hit_ratio", "ratio"},
	{"core.exec_self_us", "us"},
	{"engine.self_ms", "ms"},
	{"engine.tpch_q1_ms", "ms"},
	{"engine.tpch_q6_ms", "ms"},
	{"engine.tpch_q19_ms", "ms"},
	{"engine.protected_ops_per_row", "count"},
	{"storage.get_us", "us"},
	{"storage.insert_us", "us"},
	{"storage.update_us", "us"},
	{"storage.delete_us", "us"},
	{"storage.scan_row_ns", "ns"},
	{"storage.self_us", "us"},
	{"record.codec_ns", "ns"},
	{"vmem.self_us", "us"},
	{"vmem.prf_evals_per_op", "count"},
	{"vmem.protected_ops_per_op", "count"},
	{"vmem.verifier_prf_share", "ratio"},
	{"sethash.prf_us", "us"},
	{"vmem.epoch_rotation_ms", "ms"},
	{"vmem.verify_all_ms", "ms"},
	{"vmem.fast_scan_ratio", "ratio"},
	{"wal.append_fsync_us", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"core.recovery_ms", "ms"},
	{"stmt.update_p50_us", "us"},
	{"stmt.insert_p50_us", "us"},
	{"stmt.delete_p50_us", "us"},
	{"tpcc.neworder_p50_us", "us"},
	{"tpcc.payment_p50_us", "us"},
	{"tpcc.orderstatus_p50_us", "us"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.allocs_per_op", "count"},
	{"proc.heap_inuse_mb", "MB"},
	{"proc.gc_pause_ms", "ms"},
	{"host.steal_share", "ratio"},
	{"tail.latency_p99_us", "us"},
	{"tail.latency_p999_us", "us"},
	{"trace.overhead_share", "ratio"},
	{"trace.send_wait_p50_us", "us"},
	{"ladder.r0_us", "us"},
	{"ladder.r1_us", "us"},
	{"ladder.r1_core_us", "us"},
	{"ladder.r2_us", "us"},
	{"ladder.r3_us", "us"},
	{"ladder.r4_us", "us"},
	{"ladder.r5_us", "us"},
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics holds one pass's values under the names a spec list declares.
type metrics struct {
	specs  []spec
	values map[string]float64
}

func newMetrics(specs []spec) *metrics {
	return &metrics{specs: specs, values: map[string]float64{}}
}

// set records a value; an undeclared name is a bug in the benchmark.
func (m *metrics) set(name string, v float64) {
	for _, s := range m.specs {
		if s.name == name {
			m.values[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

func (m *metrics) get(name string) float64 { return m.values[name] }

// export lists every declared metric; one no layer of this workload
// reports reads 0 (the layer is idle there, which is itself the finding).
func (m *metrics) export() map[string]metric {
	out := make(map[string]metric, len(m.specs))
	for _, s := range m.specs {
		out[s.name] = metric{Value: m.values[s.name], Unit: s.unit}
	}
	return out
}

// result is one workload's outcome: the last line of standard output is
// its contract form (correct, attempted, failed, metrics).
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Samples   map[string]int    `json:"samples"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	SpanFile  string            `json:"span_file,omitempty"`
	// WindowOps is the untraced run's passing operations per one-second
	// window: the series the quiet eighth of throughput is chosen from.
	WindowOps []int `json:"window_ops"`
	// StealShare is the share of the machine's processor time, over the
	// untraced run, that the hypervisor gave to other guests while this one
	// had work to run: how disturbed the run was.
	StealShare  float64 `json:"steal_share"`
	FailedShare float64 `json:"failed_share"`
}

// header is the provenance every report starts with.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	DurationS  float64 `json:"duration_s"`
	WarmupS    float64 `json:"warmup_s"`
}

func readHeader(o *options) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Kernel: "unknown", Clients: o.sz.clients,
		Seed: o.seed, DurationS: o.duration.Seconds(), WarmupS: o.warmup.Seconds(),
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// sizes fixes every workload's data and sample sizes. The smoke test
// shrinks them; the command line cannot, so two runs of the command are
// always comparable.
type sizes struct {
	// clients is the number of generator goroutines and connections:
	// min(2, nproc).
	clients int
	// setups is the least number of times set-up is timed; setup_s is the
	// median. A set-up quicker than setupBudget/setups is repeated until
	// the budget is spent (at most maxSetups times), so a cheap set-up is
	// reported as steadily as a dear one.
	setups      int
	setupBudget time.Duration
	kvRows      int
	// lineitems, parts and scanSpan size wire_scan_analytic: each query is
	// bounded to scanSpan consecutive lineitem keys.
	lineitems, parts, scanSpan int
	warehouses                 int
	// pointCalls and scanCalls are the ladder's calls per rung.
	pointCalls, scanCalls int
	// countOps is the length of the one-client counting pass.
	countOps int
}

func fullSizes() sizes {
	return sizes{
		clients: min(2, runtime.NumCPU()), setups: 3, setupBudget: 2 * time.Second,
		kvRows: 200_000, lineitems: 30_000, parts: 1_000, scanSpan: 2_000,
		warehouses: 8, pointCalls: 10_000, scanCalls: 200, countOps: 2_000,
	}
}

type options struct {
	workloads []string
	seed      int64
	duration  time.Duration
	warmup    time.Duration
	trace     bool
	traceDir  string
	jsonOut   string
	repeat    int
	sz        sizes
	// tmp is the root of every temp dir the run creates.
	tmp string
	out io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wl := fs.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same generated statements")
	duration := fs.Duration("duration", 30*time.Second, "measured untraced run length per workload")
	seconds := fs.Float64("seconds", 0, "measured run length in seconds (overrides -duration)")
	warmup := fs.Duration("warmup", -1, "warm-up before measuring (default: a sixth of the measured length)")
	trace := fs.Int("trace", 1, "1: untraced run, then traced run and ladder, per-layer metrics on the result line; 0: untraced run only, end-to-end metrics on the result line")
	traceDir := fs.String("trace-dir", "", "directory for span files (default: a temp dir)")
	jsonOut := fs.String("json", "", "also write the full report to this file")
	repeat := fs.Int("repeat", 0, "run the untraced pass N times back to back and check each metric's spread against its BENCHMARK.json bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := &options{
		seed: *seed, duration: *duration, warmup: *warmup, trace: *trace != 0,
		traceDir: *traceDir, jsonOut: *jsonOut, repeat: *repeat, sz: fullSizes(), out: stdout,
	}
	if *seconds > 0 {
		o.duration = time.Duration(*seconds * float64(time.Second))
	}
	if o.warmup < 0 {
		o.warmup = o.duration / 6
	}
	for _, n := range strings.Split(*wl, ",") {
		if findWorkload(n) == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", n, strings.Join(names, ", "))
			return 2
		}
		o.workloads = append(o.workloads, n)
	}
	tmp, err := os.MkdirTemp("", "veridb-benchmark-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	o.tmp = tmp
	if o.traceDir == "" {
		o.traceDir = filepath.Join(tmp, "spans")
	}
	code := execute(o)
	// Databases and crash images go; span files stay where the report says
	// they are (os.Remove leaves a temp dir that still holds them).
	os.RemoveAll(filepath.Join(tmp, "work"))
	os.Remove(tmp)
	return code
}

// report is the -json document.
type report struct {
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

func execute(o *options) int {
	h := readHeader(o)
	hb, _ := json.Marshal(h)
	fmt.Fprintf(o.out, "header %s\n", hb)
	fmt.Fprintf(o.out, "load: closed loop, %d generator goroutines = %d connections (min(2, nproc=%d)), window 1, loopback TCP, binary framing\n",
		o.sz.clients, o.sz.clients, h.NProc)
	if o.repeat > 0 {
		return repeatCheck(o)
	}
	baseline := runtime.NumGoroutine()
	rep := report{Header: h}
	ok := true
	for _, name := range o.workloads {
		r := runWorkload(o, findWorkload(name), o.seed, baseline)
		rep.Results = append(rep.Results, r)
		printResult(o.out, r)
		ok = ok && r.Correct
	}
	if o.jsonOut != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(o.jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
	}
	// The contract line of the last workload run closes the output.
	last := rep.Results[len(rep.Results)-1]
	ms := last.EndToEnd
	if o.trace {
		ms = last.PerLayer
	}
	line, _ := json.Marshal(map[string]any{
		"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": ms,
	})
	fmt.Fprintf(o.out, "%s\n", line)
	if !ok {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, and the sample
// count behind every percentile.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s: correct=%v attempted=%d failed=%d failed_share=%g\n",
		r.Workload, r.Correct, r.Attempted, r.Failed, r.FailedShare)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ERROR %s\n", e)
	}
	row := func(specs []spec, ms map[string]metric) {
		for _, s := range specs {
			m, ok := ms[s.name]
			if !ok {
				continue
			}
			n := ""
			if c, ok := r.Samples[s.name]; ok {
				n = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Fprintf(w, "   %-34s %16.4f %s%s\n", s.name, m.Value, m.Unit, n)
		}
	}
	row(endToEnd, r.EndToEnd)
	fmt.Fprintf(w, "   operations per window, untraced run: %v\n", r.WindowOps)
	fmt.Fprintf(w, "   processor time stolen by the host, untraced run: %.4f\n", r.StealShare)
	row(perLayer, r.PerLayer)
	if r.SpanFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", r.SpanFile)
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatCheck runs the untraced pass o.repeat times per workload, each on
// a fresh database and temp dir, and prints min/median/max and the
// relative spread (max-min over median) of every end-to-end metric against
// its bound. It fails when a spread exceeds its bound or any run is wrong.
func repeatCheck(o *options) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat reads the bounds from BENCHMARK.json in the working directory:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 1
	}
	o.trace = false
	baseline := runtime.NumGoroutine()
	ok := true
	for _, name := range o.workloads {
		vals := map[string][]float64{}
		for i := 0; i < o.repeat; i++ {
			r := runWorkload(o, findWorkload(name), o.seed, baseline)
			if !r.Correct {
				printResult(o.out, r)
				ok = false
			}
			for n, m := range r.EndToEnd {
				vals[n] = append(vals[n], m.Value)
			}
		}
		fmt.Fprintf(o.out, "\n== %s: %d runs\n", name, o.repeat)
		for _, b := range bf.EndToEnd {
			v := vals[b.Name]
			sort.Float64s(v)
			if len(v) == 0 {
				continue
			}
			med := quantile(v, 0.5)
			spread := math.Inf(1)
			if med != 0 {
				spread = (v[len(v)-1] - v[0]) / med
			}
			verdict := "ok"
			if spread > b.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(o.out, "   %-20s min %14.4f  median %14.4f  max %14.4f  spread %.4f  bound %.4f  %s\n",
				b.Name, v[0], med, v[len(v)-1], spread, b.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
