// Command svcbench is the end-to-end benchmark of the scheduling service
// (internal/serve). It starts an in-process serve.Server with the default
// serve.Config on loopback and drives it with one closed-loop client over one
// keep-alive connection, then checks every response with its own feasibility
// check. With -trace 1 it instead replays, after each request, the path the
// server took through the layers' public functions and reports per-layer
// self times. README.md in this directory describes the workloads and
// metrics; run.sh builds and runs it.
//
// The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	outDir   string
	sz       sizes
	setups   int // set-ups per run; setup_s is their median
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured, written to report.json next to
// the trace files.
type report struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	SetupS       []float64          `json:"setup_s"`
	WindowS      float64            `json:"window_s"`
	Attempted    int                `json:"attempted"`
	Passed       int                `json:"passed"`
	ByKind       map[string]int     `json:"requests_by_kind"`
	Errors       []string           `json:"errors,omitempty"`
	InputDigest  string             `json:"input_digest"`
	OutputDigest string             `json:"output_digest"`
	LifetimeK    int                `json:"lifetime_ratio_sample"`
	Values       map[string]float64 `json:"metrics"`
	MetricsDelta map[string]float64 `json:"metrics_delta"`
}

// endToEnd are the metrics of the untraced run, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"heap_live_mb", "MiB"},
	{"success_ratio", "ratio"},
	{"lifetime_ratio", "ratio"},
}

// serveCounters are the /metrics names whose window deltas go into the
// report.
var serveCounters = []string{
	"serve.requests", "serve.cache_hits", "serve.cache_misses", "serve.coalesced",
	"serve.admitted", "serve.completed", "serve.failed", "serve.canceled",
	"serve.rejected_queue_full", "serve.rejected_inflight",
	"serve.solver_attempts", "serve.shard_solves", "serve.shard_cache_hits",
	"serve.shard_repairs", "serve.reconfigs", "serve.reconfig_degraded",
	"serve.reconfig_violations", "serve.invalidated",
}

func main() {
	start := time.Now()
	var (
		name    = flag.String("workload", "", "workload: hot-repeat, cold-solve or churn")
		seed    = flag.Uint64("seed", 1, "workload seed; every input and the request order derive from it")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 replays each request's path through the layers and reports per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "runs"), "directory for reports, spans and layer summaries")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "svcbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, outDir: *out, sz: fullSizes, setups: 3,
	}
	res, rep, err := run(cfg, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "svcbench: check:", e)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// session is one set-up: the generated inputs, a fresh server on loopback
// and the client connected to it.
type session struct {
	w     workload
	srv   *serve.Server
	hs    *serve.HTTPServer
	c     *client
	store *bodyStore
	tr    *tracer
}

func (s *session) close() {
	s.c.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Stop(ctx)      //nolint:errcheck // best effort: the run is over
	s.srv.Shutdown(ctx) //nolint:errcheck // best effort: the run is over
	s.store.close()
}

// setUp generates the inputs, builds the server and runs the warm-up. It
// returns the HeapAlloc reading taken after the inputs were generated and
// before the server was built.
func setUp(cfg config, dir string) (*session, uint64, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, 0, err
	}
	w.prepare(cfg.seed, cfg.sz)
	store, err := newBodyStore(filepath.Join(dir, "bodies.bin"))
	if err != nil {
		return nil, 0, err
	}
	c := newClient(store, 4096*int(cfg.window/time.Second)+1024)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	srv := serve.New(serve.Config{})
	hs, err := serve.StartHTTP("127.0.0.1:0", srv.Handler())
	if err != nil {
		store.close()
		return nil, 0, err
	}
	c.base = "http://" + hs.Addr()
	s := &session{w: w, srv: srv, hs: hs, c: c, store: store}
	if cfg.trace {
		s.tr = newTracer()
		c.tr = s.tr
	}
	c.warm = true
	if err := w.warm(c); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	c.warm = false
	return s, ms.HeapAlloc, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func run(cfg config, start time.Time) (*result, *report, error) {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, b2i(cfg.trace)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// Set up several times and keep the last: setup_s is the median. The
	// first set-up is timed from process start.
	var s *session
	var baseline uint64
	var setups []float64
	t := start
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.close()
			t = time.Now()
		}
		var err error
		s, baseline, err = setUp(cfg, dir)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.close()
	c, w := s.c, s.w

	// The timed window: one closed-loop client, nothing else running.
	runtime.GC()
	before, err := c.scrape()
	if err != nil {
		return nil, nil, err
	}
	if s.tr != nil {
		s.tr.counts = traceCounts{}
	}
	first := len(c.recs)
	marks := []mark{snapshot(c)}
	t0 := marks[0].at
	slice := cfg.window / slices
	for i := 0; ; i++ {
		if time.Since(t0) >= time.Duration(len(marks))*slice {
			marks = append(marks, snapshot(c))
			if len(marks) > slices {
				break
			}
		}
		ok, err := w.step(c, i)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			marks = append(marks, snapshot(c))
			break
		}
	}
	after, err := c.scrape()
	if err != nil {
		return nil, nil, err
	}
	c.dedup, c.dedupOff = nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	timed := c.recs[first:]
	n := len(timed)
	if n == 0 {
		return nil, nil, errors.New("no request completed in the timed window")
	}
	d := func(name string) metricDelta { return diff(before, after, name) }
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, SetupS: setups,
		WindowS: marks[len(marks)-1].at.Sub(t0).Seconds(), Attempted: n, ByKind: map[string]int{},
		InputDigest: w.inputDigest(), LifetimeK: w.ratioK(), MetricsDelta: map[string]float64{},
	}
	for _, r := range timed {
		rep.ByKind[kindNames[r.kind]]++
	}
	for _, name := range serveCounters {
		rep.MetricsDelta[name] = d(name).value
	}

	v, err := verify(w, c)
	if err != nil {
		return nil, nil, err
	}
	rep.Passed, rep.OutputDigest, rep.Errors = v.passed, v.digest, v.errors
	if err := w.mixCheck(d, n); err != nil {
		rep.Errors = append(rep.Errors, err.Error())
	}
	if len(v.ratios) < w.ratioK() {
		rep.Errors = append(rep.Errors, fmt.Sprintf("lifetime_ratio sample: %d of %d responses completed", len(v.ratios), w.ratioK()))
	}

	vals := sliceMedians(c.recs, marks)
	vals["setup_s"] = median(setups)
	vals["heap_live_mb"] = (float64(ms.HeapAlloc) - float64(baseline)) / (1 << 20)
	vals["success_ratio"] = float64(v.passed) / float64(n)
	vals["lifetime_ratio"] = mean(v.ratios)
	res := &result{Attempted: n, Failed: n - v.passed, Metrics: map[string]metric{}}
	if cfg.trace {
		if s.tr.err != nil {
			rep.Errors = append(rep.Errors, "replay: "+s.tr.err.Error())
		}
		sum := s.tr.summarize(c.recs)
		lv := sum.values(d)
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{lv[m.name], m.unit}
			vals[m.name] = lv[m.name]
		}
		if err := writeTrace(dir, s.tr, c.recs, sum); err != nil {
			return nil, nil, err
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	rep.Values = vals
	res.Correct = len(rep.Errors) == 0 && res.Failed == 0
	if err := writeJSON(filepath.Join(dir, "report.json"), rep); err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// slices is the number of equal parts the timed window is cut into. The
// timing metrics are medians over the slices, which damps bursts of
// contention from outside the process.
const slices = 10

// mark is a reading taken at a slice boundary.
type mark struct {
	at    time.Time
	recs  int
	cpu   time.Duration
	alloc uint64
}

func snapshot(c *client) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: time.Now(), recs: len(c.recs), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

// sliceMedians computes the per-slice latency percentiles, throughput, CPU
// and allocation per request, and returns the median of each over the
// slices that completed a request.
func sliceMedians(recs []record, marks []mark) map[string]float64 {
	per := map[string][]float64{}
	for k := 0; k+1 < len(marks); k++ {
		a, b := marks[k], marks[k+1]
		n := b.recs - a.recs
		if n == 0 {
			continue
		}
		lat := make([]float64, n)
		for i, r := range recs[a.recs:b.recs] {
			lat[i] = float64(r.lat) / float64(time.Millisecond)
		}
		per["latency_p50_ms"] = append(per["latency_p50_ms"], percentile(lat, 0.5))
		per["latency_p90_ms"] = append(per["latency_p90_ms"], percentile(lat, 0.9))
		per["throughput_rps"] = append(per["throughput_rps"], float64(n)/b.at.Sub(a.at).Seconds())
		per["cpu_ms_per_req"] = append(per["cpu_ms_per_req"], float64(b.cpu-a.cpu)/float64(time.Millisecond)/float64(n))
		per["alloc_kb_per_req"] = append(per["alloc_kb_per_req"], float64(b.alloc-a.alloc)/1024/float64(n))
	}
	out := map[string]float64{}
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// verdicts is the outcome of the output check.
type verdicts struct {
	passed int      // timed responses that passed
	errors []string // first few failures, set-up ones included
	ratios []float64
	digest string // over the lifetime_ratio sample's bodies, solve time masked
}

// verify checks every recorded response after the window, reading bodies
// back from the store. Byte-identical bodies (hot-repeat's shared copies)
// are checked once.
func verify(w workload, c *client) (*verdicts, error) {
	if err := c.store.flush(); err != nil {
		return nil, err
	}
	type verdict struct {
		primary bool
		ratio   float64
		err     error
	}
	done := map[int64]verdict{}
	v := &verdicts{}
	var sample [][]byte
	failed := 0
	for i := range c.recs {
		rec := &c.recs[i]
		want := !rec.warm && len(v.ratios) < w.ratioK()
		vd, seen := done[rec.off]
		var body []byte
		if !seen || want {
			if rec.off >= 0 {
				b, err := c.store.get(rec.off, rec.size)
				if err != nil {
					return nil, err
				}
				body = b
			}
		}
		if !seen || want {
			vd.primary, vd.ratio, vd.err = w.checkRecord(rec, body, want)
			if rec.off >= 0 {
				done[rec.off] = vd
			}
		}
		if rec.status == 0 {
			vd.err = errors.New("transport error")
		}
		if vd.err != nil {
			failed++
			if len(v.errors) < 5 {
				v.errors = append(v.errors, fmt.Sprintf("request %d (%s, warm=%v): %v", i, kindNames[rec.kind], rec.warm, vd.err))
			}
			continue
		}
		if rec.warm {
			continue
		}
		v.passed++
		if want && vd.primary {
			v.ratios = append(v.ratios, vd.ratio)
			sample = append(sample, stableBody(body))
		}
	}
	v.digest = digestOf(sample...)
	return v, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeTrace writes the timed window's spans as JSONL and the per-layer
// summary next to the report.
func writeTrace(dir string, tr *tracer, recs []record, sum *traceSummary) error {
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range tr.spans {
		if recs[tr.spans[i].Req].warm {
			continue
		}
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), sum)
}
