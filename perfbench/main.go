// Command perfbench is the ntpscan repository benchmark. It runs one
// workload against the program's packages, timing calls into each
// layer from outside, checks the program's outputs, and prints one JSON
// result line last on standard output:
//
//	python3 perfbench/run.py --workload campaign --seed 11 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics and a span file is written
// under --out. DESIGN.md in this directory describes the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what every untraced run reports, on every workload.
// op_p50_ms is the median of each workload's unit operation (see
// DESIGN.md); tails are in every run's provenance line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"results_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"op_p50_ms", "ms"},
}

// perLayer is what every traced run reports. A layer a workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"core.slices", "count"}, {"core.slice_ms_p50", "ms"}, {"core.slice_ms_p99", "ms"},
	{"core.compute_ms", "ms"}, {"core.sinks_ms", "ms"}, {"core.captures", "count"},
	{"core.capture_events", "count"}, {"core.capture_dropped", "count"},
	{"ntp.requests", "count"}, {"ntp.answered", "count"}, {"ntp.rate_limited", "count"},
	{"zgrab.submitted", "count"}, {"zgrab.completed", "count"}, {"zgrab.suppressed", "count"},
	{"zgrab.shed", "count"}, {"zgrab.probes", "count"}, {"zgrab.retries", "count"},
	{"zgrab.success", "count"}, {"zgrab.success_ratio", "ratio"},
	{"netsim.dials", "count"}, {"netsim.udp_packets", "count"}, {"netsim.ns_per_dial", "ns"},
	{"hitlist.build_s", "s"}, {"hitlist.probe_s", "s"}, {"hitlist.scan_s", "s"},
	{"hitlist.targets", "count"}, {"hitlist.public", "count"},
	{"sink.jsonl_ms", "ms"}, {"sink.jsonl_bytes", "bytes"}, {"sink.telemetry_ms", "ms"},
	{"store.append_ms", "ms"}, {"store.append_ms_p99", "ms"}, {"store.segments_written", "count"},
	{"store.bytes_written", "bytes"}, {"store.write_amp", "ratio"}, {"store.compactions", "count"},
	{"store.segments_compacted", "count"}, {"store.blocks_read", "count"},
	{"store.blocks_skipped", "count"}, {"store.block_cache_hit_ratio", "ratio"},
	{"store.footer_cache_hit_ratio", "ratio"},
	{"query.aggregate_ms", "ms"}, {"query.table_ms_p50", "ms"}, {"query.table_ms_p99", "ms"},
	{"query.scan_ms_p50", "ms"}, {"query.scan_ms_p99", "ms"}, {"query.rows", "count"},
	{"cluster.rpcs", "count"}, {"cluster.rpc_ms_p50", "ms"}, {"cluster.rpc_ms_p99", "ms"},
	{"cluster.rpc_share", "ratio"}, {"cluster.tasks_completed", "count"},
	{"cluster.epoch_rejections", "count"}, {"transport.attempts", "count"},
	{"transport.retries", "count"}, {"transport.bytes_out", "bytes"}, {"transport.bytes_in", "bytes"},
	{"runtime.cpu_s", "s"}, {"runtime.cpu_util", "ratio"}, {"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"}, {"runtime.alloc_mb", "MB"}, {"runtime.mutex_wait_s", "s"},
	{"harness.generator_late_ms", "ms"}, {"harness.trace_overhead_ratio", "ratio"},
	{"harness.unattributed_ratio", "ratio"}, {"harness.failed_ratio", "ratio"},
	{"harness.spans", "count"},
}

// workload is one named input set the benchmark can run.
type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"campaign", runCampaign},
	{"hitlist_scan", runHitlist},
	{"serve_ingest", runServe},
	{"cluster_wire", runCluster},
}

// env is what a workload runs with.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workers int
	dir     string  // scratch space for stores, removed afterwards
	tr      *tracer // nil unless tracing
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
	sizes             map[string]any
	pct               map[string]dist
	assumptions       []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{},
		sizes: map[string]any{}, pct: map[string]dist{}}
}

// op counts one attempted operation, failed when err is non-nil.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, err.Error())
		}
	}
}

// tail records a latency distribution under key and returns it.
func (o *outcome) tail(key string, xs []float64) dist {
	d := summarize(xs)
	o.pct[key] = d
	return d
}

// perRepeat summarises each repeat's latencies on its own and returns
// the medians, across repeats, of their medians, p90s and tails, so one
// repeat slowed by a noisy neighbour does not set the run's figure. It
// records the result under key with the lowest tail percentile any
// repeat supported.
func (o *outcome) perRepeat(key string, repeats [][]float64) dist {
	var p50s, p90s, tails []float64
	d := dist{TailQ: 1}
	for _, xs := range repeats {
		r := summarize(xs)
		p50s, p90s, tails = append(p50s, r.P50), append(p90s, r.P90), append(tails, r.Tail)
		d.N += r.N
		d.TailQ = min(d.TailQ, r.TailQ)
	}
	d.P50, d.P90, d.Tail = median(p50s), median(p90s), median(tails)
	o.pct[key] = d
	return d
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type provenance struct {
	Workload     string          `json:"workload"`
	Seed         uint64          `json:"seed"`
	Seconds      float64         `json:"seconds"`
	Trace        bool            `json:"trace"`
	NProc        int             `json:"nproc"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	GoVersion    string          `json:"go_version"`
	CPUModel     string          `json:"cpu_model"`
	Commit       string          `json:"commit"`
	SourceSHA256 string          `json:"source_sha256"`
	Sizes        map[string]any  `json:"sizes"`
	Percentiles  map[string]dist `json:"percentiles"`
	TraceFile    string          `json:"trace_file,omitempty"`
	Failures     []string        `json:"failures,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run: campaign, hitlist_scan, serve_ingest or cluster_wire")
	seed := fset.Uint64("seed", 11, "workload seed; the same seed gives the same inputs")
	seconds := fset.Float64("seconds", 10, "how long the measured phase runs")
	traceFlag := fset.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	out := fset.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch stores and trace files")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, workers: runtime.NumCPU(), dir: dir}
	if e.trace {
		e.tr = newTracer(fmt.Sprintf("%s-%d-%d", w.name, *seed, time.Now().UnixNano()))
	}
	o, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	prov := provenance{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: e.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: commit(), SourceSHA256: sourceDigest(),
		Sizes: o.sizes, Percentiles: o.pct}

	defs, src := endToEnd, o.e2e
	if e.trace {
		defs, src = perLayer, o.layer
		spans := e.tr.all()
		src["harness.failed_ratio"] = ratio(float64(o.failed), float64(o.attempted))
		src["harness.spans"] = float64(len(spans))
		prov.TraceFile = filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		hdr := traceHeader{Run: e.tr.run, Workload: w.name, Seed: *seed, Assumptions: o.assumptions}
		if err := writeTrace(prov.TraceFile, hdr, spans, traceSummary{Spans: spanStats(spans), Percentiles: o.pct}); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
			return 1
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := src[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ok, v = false, 0
		}
		if !e.trace && !(ok && v > 0) {
			o.op(fmt.Errorf("end-to-end metric %s was not measured", d.name))
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	res.Correct = o.failed == 0 && o.attempted > 0
	prov.Failures = o.failures
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "perfbench: failed:", f)
	}

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// cpuModel is the host CPU's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes go.mod and every non-test Go file under internal/
// (paths and contents, in path order), naming the program measured
// even where no commit is known.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
