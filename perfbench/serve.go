package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/obs"
	"ntpscan/internal/query"
	"ntpscan/internal/store"
	"ntpscan/internal/zgrab"
)

const (
	// serveRate is the offered load in requests per second, open loop.
	// At 400 the guest's steal time grew queues enough to spread medians
	// across seeds by up to 0.4; DESIGN.md gives the figures.
	serveRate  = 200
	serveConns = 2 // client connections
	// A run serves one recorded campaign per servePhaseLen of the run, each
	// on a fresh store and server, with at least two phases.
	servePhaseLen = 5 * time.Second
	// serveSetups is how many times each phase's set-up is timed.
	serveSetups = 9
	queryLimit  = 200
)

// recordedSlice is one drained slice of a pre-recorded campaign. The
// results are kept as JSONL, which the collector need not scan, and
// decoded just before their append.
type recordedSlice struct {
	slice   int
	caps    []store.CaptureRow
	results []byte
}

func (s recordedSlice) decode() ([]*zgrab.Result, error) {
	return zgrab.ReadJSONL(bytes.NewReader(s.results))
}

// recorder is a SliceAggregator that keeps a copy of every slice.
type recorder struct{ slices []recordedSlice }

func (r *recorder) AggregateSlice(slice int, caps []store.CaptureRow, results []*zgrab.Result) error {
	var b bytes.Buffer
	jw := zgrab.NewJSONLWriter(&b)
	for _, res := range results {
		if err := jw.Write(res); err != nil {
			return err
		}
	}
	r.slices = append(r.slices, recordedSlice{slice: slice,
		caps: append([]store.CaptureRow(nil), caps...), results: b.Bytes()})
	return nil
}

func (r *recorder) Snapshot() (json.RawMessage, error) { return json.RawMessage("{}"), nil }
func (r *recorder) Restore(json.RawMessage) error      { return nil }

// server is one query daemon under test: a store, its aggregates and
// the query handler on a loopback listener.
type server struct {
	st   *store.Store
	agg  *query.Aggregates
	reg  *obs.Registry
	http *http.Server
	url  string
	done chan struct{}
}

// startServer starts a daemon over the store in dir the way queryd does
// offline: open the store, recompute the aggregates from it, serve.
func startServer(dir string) (*server, error) {
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.Options{Obs: reg})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	agg, err := query.FromStore(st)
	if err != nil {
		return nil, fmt.Errorf("recompute aggregates: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{st: st, agg: agg, reg: reg, url: "http://" + l.Addr().String(),
		http: &http.Server{Handler: query.NewServer(st, agg, reg).Handler()}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(l)
	}()
	return s, nil
}

// stop shuts the server down and waits for its serving goroutine.
func (s *server) stop() error {
	err := s.http.Shutdown(context.Background())
	<-s.done
	return err
}

// runServe measures the read path under concurrent writes: the query
// handler on loopback, driven open-loop at a fixed rate with a seeded
// mix of table endpoints and pushdown scans, while the second half of a
// pre-recorded campaign is appended to the store the daemon serves, on
// a fixed schedule.
func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	phases := max(2, int(e.seconds/servePhaseLen))
	o.sizes["device_scale"] = clusterDeviceScale
	o.sizes["addr_scale"] = clusterAddrScale
	o.sizes["phases"] = phases
	o.sizes["phase_s"] = servePhaseLen.Seconds()
	o.sizes["offered_rate"] = serveRate
	o.sizes["connections"] = serveConns
	o.sizes["requests"] = phases * int(servePhaseLen.Seconds()*serveRate)
	o.sizes["query_limit"] = queryLimit

	var (
		setups, peaks, capacity    []float64
		appendDue, late            []float64
		fromDue, tableDue, scanDue [][]float64
		table, scan, plain, traced []float64
		rows                       int64
		counts                     []map[string]float64
		rt                         rtAcc
	)
	for _, seed := range worldSeeds(e.seed, phases) {
		rec, err := record(seed, e.workers)
		if err != nil {
			return nil, err
		}
		ph, err := servePhase(e, seed, rec, servePhaseLen)
		if err != nil {
			return nil, err
		}
		for _, err := range ph.errs {
			o.op(err)
		}
		setups = append(setups, ph.setups...)
		capacity = append(capacity, ph.reqs.capacity(time.Second/serveRate, serveRate)...)
		peaks = append(peaks, ph.peakMB)
		fromDue = append(fromDue, msOf(ph.reqs.fromDue))
		appendDue = append(appendDue, msOf(ph.appends.fromDue)...)
		late = append(late, msOf(ph.reqs.late)...)
		counts = append(counts, ph.counts)
		rt.add(ph.rt0, ph.rt1)
		var tDue, sDue []float64
		for i, u := range ph.urls {
			rows += ph.rows[i]
			d := ms(ph.reqs.service[i])
			if endpointKind(u) == "scan" {
				scan, sDue = append(scan, d), append(sDue, ms(ph.reqs.fromDue[i]))
			} else {
				table, tDue = append(table, d), append(tDue, ms(ph.reqs.fromDue[i]))
			}
			if tracedRequest(i) {
				traced = append(traced, d)
			} else {
				plain = append(plain, d)
			}
		}
		tableDue, scanDue = append(tableDue, tDue), append(scanDue, sDue)
	}
	lat := o.perRepeat("query.latency_from_due_ms", fromDue)
	o.perRepeat("query.table_from_due_ms", tableDue)
	o.perRepeat("query.scan_from_due_ms", scanDue)
	o.tail("store.append_from_due_ms", appendDue)
	o.e2e["setup_s"] = median(setups)
	o.e2e["results_per_s"] = median(capacity)
	// A run has only a few phases, and each phase's sampled peak misses
	// the true one by as much as a collection lands away from it, so the
	// run reports its highest phase rather than a median of few.
	o.e2e["peak_heap_mb"] = slices.Max(peaks)
	o.e2e["op_p50_ms"] = lat.P50

	if e.trace {
		o.layer = meanCounts(counts)
		for k, v := range rt.metrics() {
			o.layer[k] = v
		}
		t, s := o.tail("query.table_ms", table), o.tail("query.scan_ms", scan)
		o.layer["query.table_ms_p50"], o.layer["query.table_ms_p99"] = t.P50, t.Tail
		o.layer["query.scan_ms_p50"], o.layer["query.scan_ms_p99"] = s.P50, s.Tail
		o.layer["query.rows"] = float64(rows) / float64(phases)
		spans := e.tr.all()
		o.layer["store.append_ms"] = totalMS(spans, "store.append") / float64(phases)
		o.layer["store.append_ms_p99"] = o.tail("store.append_ms", durations(spans, "store.append")).Tail
		o.layer["query.aggregate_ms"] = totalMS(spans, "aggregate") / float64(phases)
		o.layer["harness.generator_late_ms"] = o.tail("harness.generator_late_ms", late).Tail
		o.layer["harness.trace_overhead_ratio"] = median(traced)/median(plain) - 1
		o.layer["harness.unattributed_ratio"] = unattributed(spans, "repeat")
		o.assumptions = []string{
			"requests of every second pass through the request mix are traced and the others are not; trace overhead compares their median service times",
			"query.*_ms are client-observed service times from dispatch to a connection; op percentiles count from the due time",
			"harness.unattributed_ratio is the share of the run with no request or append in flight",
			"per-layer totals are per phase: one recorded campaign appended and served",
		}
	}
	return o, nil
}

// servedPhase is what one phase measured.
type servedPhase struct {
	setups   []float64
	peakMB   float64
	urls     []string
	rows     []int64
	reqs     loopResult
	appends  loopResult
	counts   map[string]float64
	rt0, rt1 rtSnap
	errs     []error
}

// preload writes slices into a new store in dir, as a campaign run
// before the daemon starts would have. This is preparation and is not
// measured.
func preload(dir string, slices []recordedSlice) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("preload store: %w", err)
	}
	for _, s := range slices {
		results, err := s.decode()
		if err != nil {
			return fmt.Errorf("decode recorded slice %d: %w", s.slice, err)
		}
		if err := st.AppendSlice(s.slice, s.caps, results); err != nil {
			return fmt.Errorf("preload slice %d: %w", s.slice, err)
		}
	}
	return st.Seal()
}

// record runs a campaign, keeping its drained slices. This is
// preparation and is not measured.
func record(seed uint64, workers int) (*recorder, error) {
	rec := &recorder{}
	if _, err := core.NewPipeline(clusterConfig(seed, workers)).RunCampaign(context.Background(),
		core.CampaignOpts{Aggregates: rec}); err != nil {
		return nil, fmt.Errorf("record campaign: %w", err)
	}
	return rec, nil
}

// servePhase serves one recorded campaign for d. The first half of its
// slices is in the store before the daemon starts; the rest is appended
// on a schedule spread evenly over d while requests arrive at
// serveRate.
func servePhase(e *env, seed uint64, rec *recorder, d time.Duration) (*servedPhase, error) {
	n := int(d.Seconds() * serveRate)
	urls, err := requestMix(seed, n, rec.slices)
	if err != nil {
		return nil, fmt.Errorf("decode recorded campaign: %w", err)
	}
	ph := &servedPhase{urls: urls, rows: make([]int64, n)}
	dir := filepath.Join(e.dir, fmt.Sprintf("serve-%d", seed))
	defer os.RemoveAll(dir)
	half := len(rec.slices) / 2
	if err := preload(dir, rec.slices[:half]); err != nil {
		return nil, err
	}
	rest := rec.slices[half:]
	// The next slice's results are decoded while the appender waits for
	// its due time.
	next, err := rest[0].decode()
	if err != nil {
		return nil, fmt.Errorf("decode recorded slice: %w", err)
	}

	heap := startHeapSampler(2 * time.Millisecond)
	var srv *server
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		srv, err = startServer(dir)
		ph.setups = append(ph.setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
	}
	defer srv.stop()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	defer client.CloseIdleConnections()

	tr := e.tr
	var root int // the traced phase's root span
	request := func(i int) error {
		start := time.Now()
		var err error
		ph.rows[i], err = get(client, srv.url+urls[i], nil)
		if tracedRequest(i) {
			tr.add(root, "query", endpointKind(urls[i]), start, time.Now())
		}
		return err
	}
	ingest := func(j int) error {
		s, results := rest[j], next
		start := time.Now()
		err := srv.st.AppendSlice(s.slice, s.caps, results)
		mid := time.Now()
		err = errors.Join(err, srv.agg.AggregateSlice(s.slice, s.caps, results))
		end := time.Now()
		tr.add(root, "store", "store.append", start, mid)
		tr.add(root, "query", "aggregate", mid, end)
		if j+1 < len(rest) {
			var derr error
			if next, derr = rest[j+1].decode(); derr != nil {
				err = errors.Join(err, fmt.Errorf("serve: decode recorded slice %d: %w", rest[j+1].slice, derr))
			}
		}
		return err
	}

	ph.rt0 = readRuntime()
	start := time.Now().Add(5 * time.Millisecond)
	root = tr.open(0, "harness", "repeat", start)
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		ph.appends = runOpenLoop(start, d/time.Duration(len(rest)), len(rest), 1, ingest)
	}()
	ph.reqs = runOpenLoop(start, time.Second/serveRate, n, serveConns, request)
	<-ingested
	end := time.Now()
	tr.close(root, end)
	ph.rt1 = readRuntime()
	ph.peakMB = heap.Stop()

	ph.errs = append(append(ph.errs, ph.appends.errs...), ph.reqs.errs...)
	// After the run the served Table2 must equal a full-store recompute.
	ph.errs = append(ph.errs, checkTable2(client, srv))
	ph.counts = pipelineCounts(srv.reg.Snapshot(), 0, 0)
	return ph, nil
}

// envelope is the response shape every query endpoint returns.
type envelope struct {
	Data  json.RawMessage `json:"data"`
	Stats *query.Stats    `json:"stats"`
}

// get fetches one endpoint, requiring a 200 with a decodable envelope,
// and returns the rows it reports. With data non-nil the raw data
// member is stored there.
func get(c *http.Client, u string, data *json.RawMessage) (int64, error) {
	resp, err := c.Get(u)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("GET %s: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: status %d: %s", u, resp.StatusCode, body)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Stats == nil || env.Data == nil {
		return 0, fmt.Errorf("GET %s: undecodable response (%v)", u, err)
	}
	if data != nil {
		*data = env.Data
	}
	return env.Stats.Rows, nil
}

func checkTable2(c *http.Client, s *server) error {
	var served json.RawMessage
	if _, err := get(c, s.url+"/v1/tables/table2", &served); err != nil {
		return err
	}
	full, err := query.FromStore(s.st)
	if err != nil {
		return fmt.Errorf("serve: recompute aggregates: %w", err)
	}
	want, err := json.Marshal(full.Table2())
	if err != nil {
		return err
	}
	if string(served) != string(want) {
		return fmt.Errorf("serve: served Table2 %s differs from store recompute %s", served, want)
	}
	return nil
}

// tracedRequest reports whether request i is traced: those of every
// second pass through the eight-request mix, so traced and untraced
// requests have the same mix.
func tracedRequest(i int) bool { return (i/8)%2 == 1 }

// endpointKind classes a request path as a table read or a scan.
func endpointKind(u string) string {
	if strings.HasPrefix(u, "/v1/query") {
		return "scan"
	}
	return "table"
}

// requestMix draws n request paths from the seed. Requests cycle
// through the eight-request service mix of internal/query's concurrent
// benchmarks (BenchmarkQueryConcurrent): five materialised tables and
// three /v1/query pushdown scans with limit=200. The seed draws the
// scans' predicates from the recorded campaign: a module, a vantage,
// and a /48 prefix in the place of that mix's second module scan.
func requestMix(seed uint64, n int, slices []recordedSlice) ([]string, error) {
	modSet, vanSet := map[string]bool{}, map[string]bool{}
	var addrs []netip.Addr
	for _, s := range slices {
		for _, c := range s.caps {
			vanSet[c.Vantage] = true
		}
		results, err := s.decode()
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			modSet[r.Module] = true
			if len(addrs) < 4096 {
				addrs = append(addrs, r.IP)
			}
		}
	}
	modules, vantages := sortedKeys(modSet), sortedKeys(vanSet)
	if len(modules) == 0 || len(vantages) == 0 || len(addrs) == 0 {
		return nil, errors.New("recorded campaign has no results or captures to draw predicates from")
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	lim := fmt.Sprintf("&limit=%d", queryLimit)
	out := make([]string, n)
	for i := range out {
		switch i % 8 {
		case 0:
			out[i] = "/v1/tables/modules"
		case 1:
			out[i] = "/v1/tables/table2"
		case 2:
			out[i] = "/v1/tables/prefixes?n=10"
		case 3:
			out[i] = "/v1/tables/slices"
		case 4:
			out[i] = "/v1/query?kind=results&module=" + url.QueryEscape(modules[rng.IntN(len(modules))]) + lim
		case 5:
			pfx := netip.PrefixFrom(addrs[rng.IntN(len(addrs))], 48).Masked()
			out[i] = "/v1/query?kind=results&prefix=" + url.QueryEscape(pfx.String()) + lim
		case 6:
			out[i] = "/v1/query?kind=captures&vantage=" + url.QueryEscape(vantages[rng.IntN(len(vantages))]) + lim
		case 7:
			out[i] = "/v1/tables/vantages"
		}
	}
	return out, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
