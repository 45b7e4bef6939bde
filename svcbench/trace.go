package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/domset"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/reconfig"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/solver"
)

// span is one timed call into a layer. The http span of a request is the
// root; the spans replayed for it name it (directly or through another
// replayed span) as parent.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. After each HTTP request of the traced run
// the workload replays the path the server took through the layers' public
// functions, one span per call, under the request's ID.
type tracer struct {
	t0       time.Time
	spans    []span
	lastHTTP int
	err      error
	buf      bytes.Buffer
	cache    *mapCache
	lineages []*replayLineage

	attempts    int
	lastAttempt time.Time
	counts      traceCounts
}

// traceCounts are the replay's per-layer counters over the timed window.
type traceCounts struct {
	Solves, Attempts       int
	Stitches, Repairs      int
	ShardSolves, ShardHits int
	Reconfigs, Degraded    int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cache: &mapCache{m: map[string]*core.Schedule{}}}
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans), Parent: parent, Start: t.at(time.Now())})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.at(time.Now()) }

func (t *tracer) http(req int, start, end time.Time) {
	t.spans = append(t.spans, span{Name: "http", Req: req, ID: len(t.spans), Parent: -1, Start: t.at(start), End: t.at(end)})
	t.lastHTTP = len(t.spans) - 1
}

func (t *tracer) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// Emit counts the solver driver's attempt events (obs.Tracer).
func (t *tracer) Emit(ev obs.Event) {
	if ev.Type == obs.EvAttempt {
		t.attempts++
		t.lastAttempt = time.Now()
	}
}

// mapCache is the replay's shard cache, mirroring the server's
// compositional cache so replayed shard solves hit where the server's did.
type mapCache struct {
	mu sync.Mutex
	m  map[string]*core.Schedule
}

func (c *mapCache) Get(key string) (*core.Schedule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	return s, ok
}

func (c *mapCache) Put(key string, s *core.Schedule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = s
}

// The service's request defaults (internal/serve), replayed here.
const (
	defaultTries  = 30
	defaultSeed   = 1
	defaultKConst = 3
)

func orInt(v, fallback int) int {
	if v <= 0 {
		return fallback
	}
	return v
}

func orSeed(v uint64) uint64 {
	if v == 0 {
		return defaultSeed
	}
	return v
}

func requestSpec(r *serve.Request) solver.Spec {
	kc := r.KConst
	if kc <= 0 {
		kc = defaultKConst
	}
	s := solver.Spec{Name: r.Algorithm, KConst: kc}
	if r.Refine != "" {
		s.Name, s.Base = r.Refine, r.Algorithm
	}
	return s
}

// scheduleKey is the service's canonical schedule-request key.
func scheduleKey(r *serve.Request, g *graph.Graph, budgets []int) string {
	return graph.NewHasher().
		String("kind", "schedule").
		Graph("graph", g).
		Ints("budgets", budgets).
		String("alg", r.Algorithm).
		String("refine", r.Refine).
		Int("k", orInt(r.K, 1)).
		Float("kconst", requestSpec(r).KConst).
		Uint64("seed", orSeed(r.Seed)).
		Int("tries", orInt(r.Tries, defaultTries)).
		Int("budget", r.Budget).
		Int("time_budget_ms", r.TimeBudgetMS).
		Int("shards", r.Shards).
		String("partitioner", r.Partitioner).
		Sum()
}

// patchKey is the service's canonical PATCH key.
func patchKey(r *serve.PatchRequest, fp string, overlap int) string {
	h := graph.NewHasher().
		String("kind", "reconfig").
		String("fp", fp).
		String("alg", r.Algorithm).
		Int("at", r.At).
		Int("overlap", overlap).
		String("solver", r.Solver).
		Uint64("seed", orSeed(r.Seed)).
		Int("tries", orInt(r.Tries, defaultTries))
	return r.Delta.HashInto(h).Sum()
}

func (t *tracer) shardOptions(spec solver.Spec, seed uint64, tries, budget int) shard.Options {
	return shard.Options{
		Spec:          spec,
		Solver:        solver.Options{Tries: tries, Budget: budget},
		Seed:          seed,
		TransientPool: true,
		Cache:         t.cache,
	}
}

// checkerFor mirrors the solver driver's choice of fold kernel.
func checkerFor(g *graph.Graph) *domset.Checker {
	if 128*g.M() < g.N()*g.N() {
		return domset.NewSparseChecker(g)
	}
	return domset.NewChecker(g)
}

func decodeStrict(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

func (t *tracer) countShards(solved []*shard.ShardResult) {
	for _, sr := range solved {
		if sr.Cached {
			t.counts.ShardHits++
		} else {
			t.counts.ShardSolves++
		}
	}
}

// replaySchedule replays POST /v1/schedule. A cache hit replays decode,
// graph build and key only, as the server does.
func (t *tracer) replaySchedule(req int, body []byte, cached bool) {
	root := t.lastHTTP
	var r serve.Request
	id := t.begin("serve.decode", req, root)
	err := decodeStrict(body, &r)
	t.end(id)
	if err != nil {
		t.fail(fmt.Errorf("replay decode: %w", err))
		return
	}
	id = t.begin("graph.build", req, root)
	g := graph.NewFromEdges(r.Graph.N, r.Graph.Edges)
	budgets := r.Batteries
	if len(budgets) == 0 {
		budgets = make([]int, g.N())
		for v := range budgets {
			budgets[v] = r.Battery
		}
	}
	t.end(id)
	id = t.begin("graph.key", req, root)
	scheduleKey(&r, g, budgets)
	t.end(id)
	if cached {
		return
	}

	k := orInt(r.K, 1)
	inst := instance.New(g, budgets).WithK(k)
	if r.Algorithm == solver.NameAuto || r.Algorithm == solver.NameGrid {
		id = t.begin("instance.classify", req, root)
		inst.Meta()
		t.end(id)
	}
	var sched *core.Schedule
	var parent int
	if r.Shards > 1 {
		seed := orSeed(r.Seed)
		id = t.begin("shard.partition", req, root)
		p, err := shard.ByName(r.Partitioner, g, nil, r.Shards, seed)
		t.end(id)
		if err != nil {
			t.fail(err)
			return
		}
		id = t.begin("shard.solve", req, root)
		solved, err := shard.SolveShards(inst, p, t.shardOptions(requestSpec(&r), seed, orInt(r.Tries, defaultTries), r.Budget))
		t.end(id)
		if err != nil {
			t.fail(err)
			return
		}
		t.countShards(solved)
		parent = t.begin("shard.stitch", req, root)
		st, err := shard.Stitch(inst, p, solved, obs.Hooks{})
		t.end(parent)
		if err != nil {
			t.fail(err)
			return
		}
		t.counts.Stitches++
		t.counts.Repairs += st.Repairs
		sched = st.Schedule
	} else {
		before := t.attempts
		parent = t.begin("solver.solve", req, root)
		sched, err = serve.Solve(inst, &r, 1, serve.SolveDefaults{}, obs.Hooks{Trace: t}, nil)
		t.end(parent)
		if err != nil {
			t.fail(err)
			return
		}
		t.counts.Solves++
		t.counts.Attempts += t.attempts - before
		if r.Refine != "" && t.attempts > before {
			solve := t.spans[parent]
			t.spans = append(t.spans, span{Name: "solver.refine", Req: req, ID: len(t.spans), Parent: parent,
				Start: t.at(t.lastAttempt), End: solve.End})
			parent = len(t.spans) - 1
		}
	}
	ck := checkerFor(g)
	id = t.begin("domset.validate", req, parent)
	err = sched.ValidateWith(ck, budgets, k)
	t.end(id)
	if err != nil {
		t.fail(err)
		return
	}
	id = t.begin("graph.key", req, root)
	g.Fingerprint()
	t.end(id)
	t.encode(req, root, sched)
}

func (t *tracer) encode(req, root int, s *core.Schedule) {
	id := t.begin("core.encode", req, root)
	t.buf.Reset()
	err := s.WriteJSON(&t.buf)
	t.end(id)
	if err != nil {
		t.fail(err)
	}
}

// replayLineage is the replay's own copy of one churn lineage: the solved
// instance, schedule and partition the server holds for its head.
type replayLineage struct {
	inst  *instance.Instance
	sched *core.Schedule
	part  *shard.Partition
	spec  solver.Spec
	seed  uint64
}

// startLineages solves the churn lineages the way the server did in set-up,
// filling the replay's shard cache.
func (t *tracer) startLineages(reqs []*schedReq) {
	for _, r := range reqs {
		g := graph.NewFromEdges(r.g.n, r.g.edges)
		inst := instance.New(g, r.budgets()).WithK(r.tolerance())
		spec := solver.Spec{Name: r.alg, KConst: defaultKConst}
		seed := orSeed(r.seed)
		p, err := shard.ByName("", g, nil, r.shards, seed)
		if err != nil {
			t.fail(err)
			return
		}
		solved, err := shard.SolveShards(inst, p, t.shardOptions(spec, seed, defaultTries, 0))
		if err != nil {
			t.fail(err)
			return
		}
		st, err := shard.Stitch(inst, p, solved, obs.Hooks{})
		if err != nil {
			t.fail(err)
			return
		}
		t.lineages = append(t.lineages, &replayLineage{inst: inst, sched: st.Schedule, part: p, spec: spec, seed: seed})
	}
}

// replayPatch replays PATCH /v1/schedule/{fp} against a sharded lineage
// head. A cache hit (the idempotent retry) replays decode and key only.
func (t *tracer) replayPatch(req, lineage int, fp string, body []byte, cached bool) {
	root := t.lastHTTP
	var pr serve.PatchRequest
	id := t.begin("serve.decode", req, root)
	err := decodeStrict(body, &pr)
	t.end(id)
	if err != nil {
		t.fail(fmt.Errorf("replay decode: %w", err))
		return
	}
	overlap := reconfig.DefaultOverlap
	if pr.Overlap != nil {
		overlap = *pr.Overlap
	}
	id = t.begin("graph.key", req, root)
	patchKey(&pr, fp, overlap)
	t.end(id)
	if cached {
		return
	}

	ln := t.lineages[lineage]
	n := ln.inst.N()
	residual := make([]int, n)
	for v, used := range ln.sched.UsagePrefix(n, pr.At) {
		residual[v] = ln.inst.Budgets[v] - used
	}
	// The server applies the delta once to validate the request and once
	// more in the job to rebase the partition.
	for i := 0; i < 2; i++ {
		id = t.begin("graph.delta_apply", req, root)
		_, _, _, err = pr.Delta.Apply(ln.inst.Graph, residual)
		t.end(id)
		if err != nil {
			t.fail(err)
			return
		}
	}
	g2, b2, mapping, _ := pr.Delta.Apply(ln.inst.Graph, residual)
	id = t.begin("shard.partition", req, root)
	part2 := ln.part.Rebase(g2, mapping)
	t.end(id)
	parent2 := instance.New(g2, b2).WithK(ln.inst.Tolerance()).WithHint(ln.inst.Hint())
	id = t.begin("shard.solve", req, root)
	solved, err := shard.SolveShards(parent2, part2, t.shardOptions(ln.spec, ln.seed, defaultTries, 0))
	t.end(id)
	if err != nil {
		t.fail(err)
		return
	}
	t.countShards(solved)
	id = t.begin("shard.stitch", req, root)
	st, err := shard.Stitch(parent2, part2, solved, obs.Hooks{})
	t.end(id)
	if err != nil {
		t.fail(err)
		return
	}
	t.counts.Stitches++
	t.counts.Repairs += st.Repairs
	id = t.begin("reconfig.compute", req, root)
	plan, err := reconfig.Compute(ln.inst.WithBudgets(residual), reconfig.Request{
		Old: ln.sched, At: pr.At, Delta: pr.Delta, Overlap: overlap,
		Seed: orSeed(pr.Seed), Tries: orInt(pr.Tries, defaultTries), Incoming: st.Schedule,
	})
	t.end(id)
	if err != nil {
		t.fail(err)
		return
	}
	t.counts.Reconfigs++
	if plan.Degraded {
		t.counts.Degraded++
	}
	id = t.begin("graph.key", req, root)
	plan.Graph.Fingerprint()
	t.end(id)
	sched := plan.Schedule()
	t.encode(req, root, sched)
	ln.inst = instance.New(plan.Graph, plan.Budgets).WithK(ln.inst.Tolerance()).WithHint(ln.inst.Hint())
	ln.sched = sched
	ln.part = part2
}

// layerStats is the per-layer summary of a traced run.
type layerStats struct {
	Spans    int     `json:"spans"`
	Requests int     `json:"requests"`
	SelfP50  float64 `json:"self_p50_ms"`
	SelfMean float64 `json:"self_mean_ms"`
	Share    float64 `json:"share"` // of the summed http latency
}

type traceSummary struct {
	Layers     map[string]*layerStats        `json:"layers"`
	ByKind     map[string]map[string]float64 `json:"module_share_by_kind"`
	Modules    map[string]float64            `json:"module_share"`
	Counts     traceCounts                   `json:"counts"`
	LatencyP50 float64                       `json:"latency_p50_ms"`
	Requests   int                           `json:"requests"`
}

// layerName maps a span to its layer: the http span's self time is the
// serve handler's own work.
func layerName(s *span) string {
	if s.Name == "http" {
		return "serve.handler_self"
	}
	return s.Name
}

func module(layer string) string { return layer[:strings.IndexByte(layer, '.')] }

// summarize computes self times (a span's duration minus its children's)
// over the timed requests and aggregates them per layer and per module.
func (t *tracer) summarize(recs []record) *traceSummary {
	childSum := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			childSum[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	type key struct {
		req   int
		layer string
	}
	perReq := map[key]float64{}
	spans := map[string]int{}
	var httpMS []float64
	httpTotal := 0.0
	kindTotal := map[string]float64{}
	kindModule := map[string]map[string]float64{}
	modules := map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		rec := &recs[s.Req]
		if rec.warm {
			continue
		}
		dur := float64(s.End-s.Start) / 1e6
		self := dur - float64(childSum[i])/1e6
		layer := layerName(s)
		kind := kindNames[rec.kind]
		if s.Name == "http" {
			httpMS = append(httpMS, dur)
			httpTotal += dur
			kindTotal[kind] += dur
		}
		perReq[key{s.Req, layer}] += self
		spans[layer]++
		modules[module(layer)] += self
		if kindModule[kind] == nil {
			kindModule[kind] = map[string]float64{}
		}
		kindModule[kind][module(layer)] += self
	}
	sum := &traceSummary{
		Layers:     map[string]*layerStats{},
		ByKind:     map[string]map[string]float64{},
		Modules:    map[string]float64{},
		Counts:     t.counts,
		LatencyP50: percentile(httpMS, 0.5),
		Requests:   len(httpMS),
	}
	samples := map[string][]float64{}
	for k, v := range perReq {
		samples[k.layer] = append(samples[k.layer], v)
	}
	for layer, xs := range samples {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		sum.Layers[layer] = &layerStats{
			Spans: spans[layer], Requests: len(xs),
			SelfP50: percentile(xs, 0.5), SelfMean: total / float64(len(xs)),
			Share: total / httpTotal,
		}
	}
	for m, v := range modules {
		sum.Modules[m] = v / httpTotal
	}
	for kind, ms := range kindModule {
		sum.ByKind[kind] = map[string]float64{}
		for m, v := range ms {
			sum.ByKind[kind][m] = v / kindTotal[kind]
		}
	}
	return sum
}

// layerMetrics are the per-layer metrics the benchmark prints in a traced
// run, in BENCHMARK.json order. Layers a workload never reaches read 0.
var layerMetrics = []struct{ name, unit string }{
	{"serve.decode_ms", "ms"},
	{"serve.handler_self_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"graph.build_ms", "ms"},
	{"graph.key_ms", "ms"},
	{"graph.delta_apply_ms", "ms"},
	{"instance.classify_ms", "ms"},
	{"solver.solve_ms", "ms"},
	{"solver.attempts_per_solve", "count"},
	{"solver.refine_ms", "ms"},
	{"domset.validate_ms", "ms"},
	{"shard.partition_ms", "ms"},
	{"shard.solve_ms", "ms"},
	{"shard.stitch_ms", "ms"},
	{"shard.repairs_per_stitch", "count"},
	{"shard.cache_hit_ratio", "ratio"},
	{"reconfig.compute_ms", "ms"},
	{"reconfig.degraded_ratio", "ratio"},
	{"core.encode_ms", "ms"},
	{"serve.latency_share", "ratio"},
	{"graph.latency_share", "ratio"},
	{"instance.latency_share", "ratio"},
	{"solver.latency_share", "ratio"},
	{"domset.latency_share", "ratio"},
	{"shard.latency_share", "ratio"},
	{"reconfig.latency_share", "ratio"},
	{"core.latency_share", "ratio"},
	{"trace.latency_p50_ms", "ms"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// values computes every per-layer metric from the summary and the /metrics
// deltas of the traced window.
func (s *traceSummary) values(d func(string) metricDelta) map[string]float64 {
	out := map[string]float64{}
	for _, m := range layerMetrics {
		switch {
		case strings.HasSuffix(m.name, "_share"):
			out[m.name] = s.Modules[strings.TrimSuffix(m.name, ".latency_share")]
		case m.unit == "ms":
			if l := s.Layers[strings.TrimSuffix(m.name, "_ms")]; l != nil {
				out[m.name] = l.SelfP50
			} else {
				out[m.name] = 0
			}
		}
	}
	hist := func(name string) float64 { h := d(name); return ratio(h.sum, h.count) }
	hits, solves := d("serve.shard_cache_hits").value, d("serve.shard_solves").value
	c := s.Counts
	out["serve.cache_hit_ratio"] = ratio(d("serve.cache_hits").value, d("serve.requests").value)
	out["serve.queue_wait_ms"] = hist("serve.queue_wait_ms")
	out["serve.solve_ms"] = hist("serve.solve_ms")
	out["solver.attempts_per_solve"] = ratio(float64(c.Attempts), float64(c.Solves))
	out["shard.repairs_per_stitch"] = ratio(float64(c.Repairs), float64(c.Stitches))
	out["shard.cache_hit_ratio"] = ratio(hits, hits+solves)
	out["reconfig.degraded_ratio"] = ratio(float64(c.Degraded), float64(c.Reconfigs))
	out["trace.latency_p50_ms"] = s.LatencyP50
	return out
}
