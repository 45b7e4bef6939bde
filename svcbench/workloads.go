package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/solver"
)

// sizes are the input sizes of every workload. The benchmark runs at
// fullSizes; the determinism test runs the same code at tinySizes.
type sizes struct {
	hotN        []int // pool graph sizes
	hotVariants int   // graphs per (size, family)
	hotTries    int

	coldN, coldRefineN, coldShardN int
	gridSide                       int
	coldTemplates                  int // graphs per mix entry
	coldTries                      int
	coldBudget                     int // refinement move budget
	coldWarm                       int // warm-up requests
	coldRatioK                     int // requests in the lifetime_ratio sample

	churnN, churnLineages int
	churnSteps            int // PATCH steps generated in set-up (cap)
	churnWarm             int // steps sent during set-up
	churnRatioK           int
}

var fullSizes = sizes{
	hotN: []int{128, 512, 2048}, hotVariants: 2, hotTries: 8,
	coldN: 512, coldRefineN: 256, coldShardN: 1024, gridSide: 40,
	coldTemplates: 6, coldTries: 16, coldBudget: 10000, coldWarm: 18, coldRatioK: 90,
	churnN: 512, churnLineages: 16, churnSteps: 2400, churnWarm: 16, churnRatioK: 96,
}

// workload is one traffic mix. Every input is a function of the seed given
// to prepare; step i sends the i-th unit of the timed sequence.
type workload interface {
	prepare(seed uint64, sz sizes)
	// inputDigest identifies the generated inputs.
	inputDigest() string
	warm(c *client) error
	// step sends the i-th unit of work; false when the inputs ran out.
	step(c *client, i int) (bool, error)
	// checkRecord checks one response. primary marks the responses the
	// lifetime_ratio sample draws from; ratio is computed only if asked.
	checkRecord(rec *record, body []byte, wantRatio bool) (primary bool, ratio float64, err error)
	// ratioK is the size of the lifetime_ratio sample.
	ratioK() int
	// mixCheck fails the run if the /metrics deltas over the timed window
	// show a different mix than the workload is built to send.
	mixCheck(d func(name string) metricDelta, timed int) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "hot-repeat":
		return &hotRepeat{}, nil
	case "cold-solve":
		return &coldSolve{}, nil
	case "churn":
		return &churn{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have hot-repeat, cold-solve, churn)", name)
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---------------------------------------------------------------- hot-repeat

// hotRepeat replays a pool of distinct schedule requests, solved once in
// set-up, so every timed request is a cache hit: the request path (decode,
// graph build, hash, lookup, encode) is the whole cost.
type hotRepeat struct {
	pool   []*schedReq
	bodies [][]byte
	bounds []int
	seen   []bool
	order  []int
	src    *rng.Source
}

func (w *hotRepeat) prepare(seed uint64, sz sizes) {
	src := rng.New(seed)
	w.pool, w.bodies = nil, nil
	for _, n := range sz.hotN {
		for v := 0; v < sz.hotVariants; v++ {
			for _, g := range []*netGraph{gnp(n, 12, src), udg(n, 12, src)} {
				w.pool = append(w.pool,
					&schedReq{g: g, alg: solver.NameUniform, battery: 3 + src.Intn(6), tries: sz.hotTries, seed: src.Uint64() >> 1},
					&schedReq{g: g, alg: solver.NameGeneral, batteries: batteries(n, 4, 15, src), tries: sz.hotTries, seed: src.Uint64() >> 1},
					&schedReq{g: g, alg: solver.NameGreedy, batteries: batteries(n, 4, 15, src), seed: src.Uint64() >> 1})
			}
		}
	}
	for _, r := range w.pool {
		w.bodies = append(w.bodies, r.appendBody(nil))
	}
	w.bounds = make([]int, len(w.pool))
	w.seen = make([]bool, len(w.pool))
	w.order = make([]int, len(w.pool))
	w.src = src
}

func (w *hotRepeat) inputDigest() string { return digestOf(w.bodies...) }

func (w *hotRepeat) warm(c *client) error {
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			// From the second pass on every response to an item is the
			// same cached result, so identical bodies are stored once.
			c.dedup, c.dedupOff = map[int][]byte{}, map[int]int64{}
		}
		for i, b := range w.bodies {
			if _, _, err := c.do(kSchedule, "POST", "/v1/schedule", b, i, i); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *hotRepeat) step(c *client, i int) (bool, error) {
	p := len(w.pool)
	if i%p == 0 {
		for j := range w.order {
			w.order[j] = j
		}
		w.src.Shuffle(p, func(a, b int) { w.order[a], w.order[b] = w.order[b], w.order[a] })
	}
	item := w.order[i%p]
	body := w.bodies[item]
	resp, idx, err := c.do(kSchedule, "POST", "/v1/schedule", body, item, item)
	if err == nil && c.tr != nil {
		c.tr.replaySchedule(idx, body, isCached(resp))
	}
	return true, err
}

func (w *hotRepeat) checkRecord(rec *record, body []byte, wantRatio bool) (bool, float64, error) {
	item := int(rec.item)
	req := w.pool[item]
	// Records are checked in order: an item's first response is the
	// set-up solve, every later one must be a cache hit.
	first := !w.seen[item]
	w.seen[item] = true
	r, err := checkSchedule(rec.status, body, req, !first)
	if err != nil || !wantRatio {
		return true, 0, err
	}
	if w.bounds[item] == 0 {
		w.bounds[item] = req.bound()
	}
	return true, float64(r.Lifetime) / float64(w.bounds[item]), nil
}

func (w *hotRepeat) ratioK() int { return len(w.pool) }

func (w *hotRepeat) mixCheck(d func(string) metricDelta, timed int) error {
	req, hits := d("serve.requests").value, d("serve.cache_hits").value
	if int(req) != timed || hits != req {
		return fmt.Errorf("hot-repeat mix: %v requests, %v cache hits, %d sent; want all hits", req, hits, timed)
	}
	return nil
}

func isCached(resp []byte) bool {
	return bytes.Contains(resp, []byte(`"cached": true`))
}

// ---------------------------------------------------------------- cold-solve

// coldMix is one entry of the cold-solve rotation: a request template over
// a few graphs. Entries with per-node budgets carry one vector per graph;
// the others draw a uniform battery in [lo, lo+6) per request.
type coldMix struct {
	tpl       schedReq
	graphs    []*netGraph
	batteries [][]int
	lo        int
}

// coldSolve sends only distinct requests (fresh graph, seed or battery), so
// every request misses the cache and the solve path does the work.
type coldSolve struct {
	mix      []coldMix
	seedBase uint64
	sz       sizes
	body     []byte
}

// warmBit separates the warm-up requests' seeds from the timed ones.
const warmBit = 1 << 62

func (w *coldSolve) prepare(seed uint64, sz sizes) {
	src := rng.New(seed)
	graphs := func(f func() *netGraph) []*netGraph {
		out := make([]*netGraph, sz.coldTemplates)
		for i := range out {
			out[i] = f()
		}
		return out
	}
	hetero := func(gs []*netGraph) [][]int {
		out := make([][]int, len(gs))
		for i, g := range gs {
			out[i] = batteries(g.n, 4, 15, src)
		}
		return out
	}
	plain := graphs(func() *netGraph { return gnp(sz.coldN, 12, src) })
	small := graphs(func() *netGraph { return gnp(sz.coldRefineN, 12, src) })
	grids := graphs(func() *netGraph { return relabeledGrid(sz.gridSide, sz.gridSide, src) })
	large := graphs(func() *netGraph { return gnp(sz.coldShardN, 12, src) })
	smallB := hetero(small)
	w.mix = []coldMix{
		{tpl: schedReq{alg: solver.NameUniform, tries: sz.coldTries}, graphs: plain, lo: 3},
		{tpl: schedReq{alg: solver.NameGeneral, tries: sz.coldTries}, graphs: plain, batteries: hetero(plain)},
		{tpl: schedReq{alg: solver.NameFT, k: 2, tries: sz.coldTries}, graphs: plain, lo: 4},
		{tpl: schedReq{alg: solver.NameGreedy, refine: solver.NameTabu, budget: sz.coldBudget}, graphs: small, batteries: smallB},
		{tpl: schedReq{alg: solver.NameGreedy, refine: solver.NameAnneal, budget: sz.coldBudget}, graphs: small, batteries: smallB},
		{tpl: schedReq{alg: solver.NameAuto}, graphs: grids, lo: 2},
		{tpl: schedReq{alg: solver.NameGreedy, shards: 4}, graphs: large, lo: 2},
	}
	w.seedBase = src.Uint64() >> 3
	w.sz = sz
}

// rotation is the order in which cold-solve requests visit the mix entries.
// Uniform and the sharded solve take two slots each, so that with entries
// ranked by latency the median falls in the middle of the auto-grid entry
// and the 90th percentile in the middle of the sharded one, never on a
// boundary between two entries where it would jump.
var rotation = []int{0, 1, 2, 0, 5, 3, 4, 6, 6}

// request returns the i-th request of the timed sequence (or of the warm-up
// sequence): mix entries in a fixed rotation, graphs cycling within an
// entry, and a seed (and battery, where uniform) no other request shares.
func (w *coldSolve) request(i int, warm bool) *schedReq {
	slot := i % len(rotation)
	m := &w.mix[rotation[slot]]
	j := (i/len(rotation) + slot) % len(m.graphs)
	r := m.tpl
	r.g = m.graphs[j]
	r.seed = w.seedBase + uint64(i) + 1
	if warm {
		r.seed |= warmBit
	}
	if m.batteries != nil {
		r.batteries = m.batteries[j]
	} else {
		r.battery = m.lo + int(mix64(r.seed)%6)
	}
	return &r
}

func (w *coldSolve) inputDigest() string {
	var parts [][]byte
	for i := 0; i < 2*len(rotation); i++ {
		parts = append(parts, w.request(i, false).appendBody(nil))
	}
	return digestOf(parts...)
}

func (w *coldSolve) warm(c *client) error {
	for i := 0; i < w.sz.coldWarm; i++ {
		w.body = w.request(i, true).appendBody(w.body[:0])
		if _, _, err := c.do(kSchedule, "POST", "/v1/schedule", w.body, i, -1); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldSolve) step(c *client, i int) (bool, error) {
	w.body = w.request(i, false).appendBody(w.body[:0])
	_, idx, err := c.do(kSchedule, "POST", "/v1/schedule", w.body, i, -1)
	if err == nil && c.tr != nil {
		c.tr.replaySchedule(idx, w.body, false)
	}
	return true, err
}

func (w *coldSolve) checkRecord(rec *record, body []byte, wantRatio bool) (bool, float64, error) {
	req := w.request(int(rec.item), rec.warm)
	r, err := checkSchedule(rec.status, body, req, false)
	if err != nil || !wantRatio {
		return true, 0, err
	}
	return true, float64(r.Lifetime) / float64(req.bound()), nil
}

func (w *coldSolve) ratioK() int { return w.sz.coldRatioK }

func (w *coldSolve) mixCheck(d func(string) metricDelta, timed int) error {
	req, hits, co := d("serve.requests").value, d("serve.cache_hits").value, d("serve.coalesced").value
	if int(req) != timed || hits != 0 || co != 0 {
		return fmt.Errorf("cold-solve mix: %v requests, %v hits, %v coalesced, %d sent; want all misses", req, hits, co, timed)
	}
	return nil
}

// --------------------------------------------------------------------- churn

// churnStep is one generated PATCH: a small delta against a lineage head.
type churnStep struct {
	lineage int
	fp      string // hex fingerprint of the head the delta applies to
	delta   graph.Delta
	body    []byte
}

// churn drives live reconfiguration: lineages solved sharded in set-up, then
// PATCH steps round-robin over them, each followed by a poll, an idempotent
// retry and another poll. Each lineage is driven strictly in sequence.
type churn struct {
	lineages []*schedReq
	steps    []churnStep
	warmN    int
	sz       sizes
	key      []byte

	// Output-check mirror of every lineage (see checkRecord).
	mirror []*mirrorLineage
}

func (w *churn) prepare(seed uint64, sz sizes) {
	src := rng.New(seed)
	w.sz, w.warmN = sz, sz.churnWarm
	heads := make([]*graph.Graph, sz.churnLineages)
	budgets := make([][]int, sz.churnLineages)
	w.lineages = make([]*schedReq, sz.churnLineages)
	for l := range w.lineages {
		g := gnp(sz.churnN, 12, src)
		b := batteries(sz.churnN, 4, 15, src)
		w.lineages[l] = &schedReq{g: g, alg: solver.NameGreedy, batteries: b, shards: 4, seed: src.Uint64() >> 1}
		heads[l] = graph.NewFromEdges(g.n, g.edges)
		budgets[l] = b
	}
	w.steps = make([]churnStep, sz.churnSteps)
	for s := range w.steps {
		l := s % sz.churnLineages
		g := heads[l]
		d := randomDelta(g, src)
		g2, b2, _, err := d.Apply(g, budgets[l])
		if err != nil {
			panic(fmt.Sprintf("churn: generated delta does not apply: %v", err)) // a generator bug
		}
		fp := g.Fingerprint()
		body, _ := json.Marshal(serve.PatchRequest{Delta: d})
		w.steps[s] = churnStep{lineage: l, fp: hex.EncodeToString(fp[:]), delta: d, body: body}
		heads[l], budgets[l] = g2, b2
	}
}

// randomDelta draws a node swap (a node leaves and a fresh one takes its
// links), an edge flip, or a budget update.
func randomDelta(g *graph.Graph, src *rng.Source) graph.Delta {
	n := g.N()
	v := src.Intn(n)
	switch src.Intn(3) {
	case 0:
		var adds [][2]int
		for _, u := range g.Neighbors(v) {
			nu := int(u)
			if nu > v {
				nu--
			}
			adds = append(adds, [2]int{nu, n - 1})
		}
		if len(adds) == 0 {
			adds = append(adds, [2]int{src.Intn(n - 1), n - 1})
		}
		return graph.Delta{RemoveNodes: []int{v}, AddNodes: 1, NewBudgets: []int{4 + src.Intn(12)}, AddEdges: adds}
	case 1:
		u := src.Intn(n - 1)
		if u >= v {
			u++
		}
		if g.HasEdge(u, v) {
			return graph.Delta{RemoveEdges: [][2]int{{u, v}}}
		}
		return graph.Delta{AddEdges: [][2]int{{u, v}}}
	}
	return graph.Delta{SetBudgets: []graph.BudgetUpdate{{Node: v, Budget: 4 + src.Intn(12)}}}
}

func (w *churn) inputDigest() string {
	var parts [][]byte
	for _, r := range w.lineages {
		parts = append(parts, r.appendBody(nil))
	}
	for _, s := range w.steps[:min(len(w.steps), 64)] {
		parts = append(parts, s.body)
	}
	return digestOf(parts...)
}

func (w *churn) warm(c *client) error {
	for l, r := range w.lineages {
		if _, _, err := c.do(kSchedule, "POST", "/v1/schedule", r.appendBody(nil), l, -1); err != nil {
			return err
		}
	}
	if c.tr != nil {
		c.tr.startLineages(w.lineages)
	}
	for s := 0; s < w.warmN; s++ {
		if err := w.send(c, s); err != nil {
			return err
		}
	}
	return nil
}

func (w *churn) step(c *client, i int) (bool, error) {
	s := w.warmN + i
	if s >= len(w.steps) {
		return false, nil
	}
	return true, w.send(c, s)
}

// send runs one churn step: PATCH, poll, idempotent retry, poll.
func (w *churn) send(c *client, s int) error {
	st := &w.steps[s]
	path := "/v1/schedule/" + st.fp
	resp, idx, err := c.do(kPatch, "PATCH", path, st.body, s, -1)
	if err != nil {
		return err
	}
	if c.tr != nil {
		c.tr.replayPatch(idx, st.lineage, st.fp, st.body, isCached(resp))
	}
	w.key = appendKey(w.key[:0], resp)
	job := "/v1/jobs/" + string(w.key)
	if _, _, err := c.do(kJob, "GET", job, nil, s, -1); err != nil {
		return err
	}
	resp, idx, err = c.do(kPatchRetry, "PATCH", path, st.body, s, -1)
	if err != nil {
		return err
	}
	if c.tr != nil {
		c.tr.replayPatch(idx, st.lineage, st.fp, st.body, isCached(resp))
	}
	_, _, err = c.do(kJob, "GET", job, nil, s, -1)
	return err
}

// appendKey copies the "key" field of a response (its first field).
func appendKey(dst, resp []byte) []byte {
	const field = `"key": "`
	i := bytes.Index(resp, []byte(field))
	if i < 0 {
		return dst
	}
	rest := resp[i+len(field):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return dst
	}
	return append(dst, rest[:j]...)
}

// mirrorLineage is the output check's own copy of one lineage: the head
// graph and budgets, and the schedule the server last returned for it.
type mirrorLineage struct {
	g       *graph.Graph
	budgets []int
	sched   *wireResult
	fp      string

	// Expectation for the responses of the step in flight.
	step    int
	g2      *graph.Graph
	b2      []int
	fp2     string
	patched *wireResult
	broken  error
}

func (w *churn) checkRecord(rec *record, body []byte, wantRatio bool) (bool, float64, error) {
	if rec.kind == kSchedule {
		l := int(rec.item)
		req := w.lineages[l]
		r, err := checkSchedule(rec.status, body, req, false)
		if w.mirror == nil {
			w.mirror = make([]*mirrorLineage, len(w.lineages))
		}
		g := graph.NewFromEdges(req.g.n, req.g.edges)
		fp := g.Fingerprint()
		m := &mirrorLineage{g: g, budgets: req.batteries, sched: r, fp: hex.EncodeToString(fp[:]), step: -1}
		if err != nil {
			m.broken = fmt.Errorf("lineage %d base: %w", l, err)
		}
		w.mirror[l] = m
		return false, 0, err
	}
	s := int(rec.item)
	st := &w.steps[s]
	m := w.mirror[st.lineage]
	if m.step != s {
		// First response of a new step: advance the mirror to the state
		// the previous step left and apply this step's delta.
		if m.patched != nil {
			m.g, m.budgets, m.sched, m.fp = m.g2, m.b2, m.patched, m.fp2
		}
		m.step, m.patched = s, nil
		if m.broken == nil {
			if m.fp != st.fp {
				m.broken = fmt.Errorf("step %d: mirror head %s, request addressed %s", s, m.fp, st.fp)
			} else {
				residual := usagePrefix(m.sched, m.g.N(), 0)
				for v := range residual {
					residual[v] = m.budgets[v] - residual[v]
				}
				g2, b2, _, err := st.delta.Apply(m.g, residual)
				if err != nil {
					m.broken = fmt.Errorf("step %d: delta: %w", s, err)
				} else {
					fp2 := g2.Fingerprint()
					m.g2, m.b2, m.fp2 = g2, b2, hex.EncodeToString(fp2[:])
				}
			}
		}
	}
	if m.broken != nil {
		return rec.kind == kPatch, 0, m.broken
	}
	if rec.status != 200 {
		return rec.kind == kPatch, 0, fmt.Errorf("step %d %s: status %d: %.200s", s, kindNames[rec.kind], rec.status, body)
	}
	r, err := parseResult(body)
	if err == nil {
		err = checkTransition(r, m, rec.kind)
	}
	if err != nil {
		err = fmt.Errorf("step %d %s: %w", s, kindNames[rec.kind], err)
		if rec.kind == kPatch {
			m.broken = err
		}
		return rec.kind == kPatch, 0, err
	}
	if rec.kind != kPatch {
		return false, 0, nil
	}
	m.patched = r
	if !wantRatio {
		return true, 0, nil
	}
	return true, float64(r.Lifetime) / float64(core.GeneralUpperBound(m.g2, m.b2)), nil
}

func checkTransition(r *wireResult, m *mirrorLineage, kind uint8) error {
	if r.Kind != "reconfig" {
		return fmt.Errorf("kind %q, want reconfig", r.Kind)
	}
	if r.Violation {
		return fmt.Errorf("transition reports a domination violation")
	}
	if r.Cached != (kind != kPatch) {
		return fmt.Errorf("cached = %v", r.Cached)
	}
	if r.PriorFingerprint != m.fp || r.Fingerprint != m.fp2 {
		return fmt.Errorf("fingerprints %s→%s, mirror %s→%s", r.PriorFingerprint, r.Fingerprint, m.fp, m.fp2)
	}
	if m.patched != nil && r.Key != m.patched.Key {
		return fmt.Errorf("key %s, the step's PATCH returned %s", r.Key, m.patched.Key)
	}
	g := m.g2
	return checkFeasible(r, func(v int) []int32 { return g.Neighbors(v) }, g.N(), m.b2, 1)
}

func (w *churn) ratioK() int { return w.sz.churnRatioK }

func (w *churn) mixCheck(d func(string) metricDelta, timed int) error {
	if v := d("serve.reconfig_violations").value; v != 0 {
		return fmt.Errorf("churn mix: %v transitions lost domination", v)
	}
	return nil
}
