package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The tail is the highest percentile with at least ten samples ranked
// above it.
func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.99}, // capped at p99 although p99.9 has ten beyond
		{1000, 0.99},  // exactly ten beyond p99
		{999, 0.95},   // nine beyond p99
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{97, 0.75},
		{20, 0.5},
		{19, 1}, // nothing qualifies: the maximum
	} {
		if got := tailQuantile(c.n, 0.99); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailQuantile(100000, 0.999); got != 0.999 {
		t.Errorf("tailQuantile(100000, max 0.999) = %v", got)
	}
}

func TestSummarizeReportsSupportedTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted input
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.TailQ != 0.99 || d.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v, want n 1000, p50 500, p99 990", d)
	}
	if xs[0] != 1000 {
		t.Error("summarize reordered its input")
	}
}

// The result format's rules for metric and workload names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestValidNames(t *testing.T) {
	for _, s := range []string{"setup_s", "core.slice_ms_p99", "9lives", "a-b.c_d", "x"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, s := range []string{"", "_lead", ".lead", "-lead", "has space", "slash/no", "ünï", string(long)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "1/s", "%", "count", "MB"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "a b", "seventeen_letters"} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}
}

// Every metric and workload name the harness emits is valid and used
// once.
func TestMetricTablesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) || !validUnit(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q): invalid or duplicate", d.name, d.unit)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !validName(w.name) || seen[w.name] {
			t.Errorf("workload %q: invalid or duplicate", w.name)
		}
		seen[w.name] = true
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the
// harness implements.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, "workload "+w.Name)
	}
	for _, w := range workloads {
		want = append(want, "workload "+w.name)
	}
	for _, m := range b.EndToEnd {
		got = append(got, "e2e "+m.Name+" "+m.Unit)
	}
	for _, m := range endToEnd {
		want = append(want, "e2e "+m.name+" "+m.unit)
	}
	for _, m := range b.PerLayer {
		got = append(got, "layer "+m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, "layer "+m.name+" "+m.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json declares %d entries, harness %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("BENCHMARK.json %q, harness %q", got[i], want[i])
		}
	}
}

func TestRtAccUtilisation(t *testing.T) {
	t0 := time.Unix(0, 0)
	var r rtAcc
	r.add(rtSnap{at: t0}, rtSnap{at: t0.Add(time.Second), cpu: time.Second, gcCycles: 3, alloc: 2 << 20})
	r.add(rtSnap{at: t0}, rtSnap{at: t0.Add(time.Second), cpu: 500 * time.Millisecond})
	m := r.metrics()
	if m["runtime.cpu_s"] != 1.5 || m["runtime.gc_cycles"] != 3 || m["runtime.alloc_mb"] != 2 {
		t.Errorf("accumulated runtime metrics = %v", m)
	}
}
