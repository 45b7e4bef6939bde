package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/shard"
	"repro/internal/solver"
)

// The reference request path: the reflective decode, build, resolve and key
// that POST /v1/schedule ran before the single pass, plus the two decode
// rules the single pass added (every edge exactly two integers, nothing
// after the object). FuzzScheduleRequest checks the single pass against it.

// refDecode runs body through the reference path with the given node cap
// and returns the decoded request, the instance, the key and the status
// (200 when the request would be admitted).
func refDecode(body []byte, maxNodes int) (Request, *instance.Instance, string, int) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, "", http.StatusBadRequest
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, nil, "", http.StatusBadRequest
	}
	// The edge rule, read from the same keys with the same last-wins and
	// merge semantics as the decode above.
	var shadow struct {
		Graph struct {
			Edges [][]json.RawMessage `json:"edges"`
		} `json:"graph"`
	}
	if err := json.Unmarshal(body, &shadow); err != nil {
		return req, nil, "", http.StatusBadRequest
	}
	for _, e := range shadow.Graph.Edges {
		if len(e) != 2 || string(e[0]) == "null" || string(e[1]) == "null" {
			return req, nil, "", http.StatusBadRequest
		}
	}
	inst, err := refResolve(&req, maxNodes)
	if err != nil {
		var tooLarge errTooLarge
		if errors.As(err, &tooLarge) {
			return req, nil, "", http.StatusRequestEntityTooLarge
		}
		return req, nil, "", http.StatusBadRequest
	}
	return req, inst, refKey(&req, inst), http.StatusOK
}

func refBuild(gs GraphSpec, maxNodes int) (*graph.Graph, error) {
	if gs.N < 0 {
		return nil, fmt.Errorf("graph.n = %d must be >= 0", gs.N)
	}
	if gs.N > maxNodes {
		return nil, errTooLarge{fmt.Sprintf("graph.n = %d exceeds the service cap of %d nodes", gs.N, maxNodes)}
	}
	seen := make(map[uint64]bool, len(gs.Edges))
	for i, e := range gs.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= gs.N || v < 0 || v >= gs.N {
			return nil, fmt.Errorf("edge %d {%d,%d}: endpoint out of range [0, %d)", i, u, v, gs.N)
		}
		if u == v {
			return nil, fmt.Errorf("edge %d: self-loop at node %d", i, u)
		}
		if u > v {
			u, v = v, u
		}
		packed := uint64(u)<<32 | uint64(v)
		if seen[packed] {
			return nil, fmt.Errorf("edge %d: duplicate edge {%d,%d}", i, u, v)
		}
		seen[packed] = true
	}
	return graph.NewFromEdges(gs.N, gs.Edges), nil
}

func refResolve(r *Request, maxNodes int) (*instance.Instance, error) {
	if _, ok := solver.Get(r.Algorithm); !ok {
		return nil, fmt.Errorf("unknown algorithm %q", r.Algorithm)
	}
	if r.Refine != "" && !isRefiner(r.Refine) {
		return nil, fmt.Errorf("refine = %q is not a refinement solver", r.Refine)
	}
	sv, _ := solver.Get(r.spec().Name)
	switch {
	case r.K < 0, r.KConst < 0, r.Tries < 0, r.Budget < 0, r.TimeBudgetMS < 0,
		r.TimeoutMS < 0, r.Shards < 0:
		return nil, errors.New("negative parameter")
	}
	switch r.Partitioner {
	case "", "bfs":
	default:
		return nil, fmt.Errorf("partitioner %q (have %s)", r.Partitioner, strings.Join(shard.Partitioners(), ", "))
	}
	g, err := refBuild(r.Graph, maxNodes)
	if err != nil {
		return nil, err
	}
	budgets := make([]int, g.N())
	switch {
	case len(r.Batteries) > 0:
		if len(r.Batteries) != g.N() {
			return nil, fmt.Errorf("%d batteries for %d nodes", len(r.Batteries), g.N())
		}
		for v, b := range r.Batteries {
			if b < 0 {
				return nil, fmt.Errorf("batteries[%d] = %d must be >= 0", v, b)
			}
			budgets[v] = b
		}
	default:
		if r.Battery < 0 {
			return nil, fmt.Errorf("battery = %d must be >= 0", r.Battery)
		}
		for v := range budgets {
			budgets[v] = r.Battery
		}
	}
	inst := instance.New(g, budgets).WithK(r.k())
	if err := sv.Validate(inst, r.spec()); err != nil {
		return nil, err
	}
	return inst, nil
}

func refKey(r *Request, inst *instance.Instance) string {
	return graph.NewHasher().
		String("kind", "schedule").
		Graph("graph", inst.Graph).
		Ints("budgets", inst.Budgets).
		String("alg", r.Algorithm).
		String("refine", r.Refine).
		Int("k", r.k()).
		Float("kconst", r.kconst()).
		Uint64("seed", r.seed()).
		Int("tries", r.tries()).
		Int("budget", r.Budget).
		Int("time_budget_ms", r.TimeBudgetMS).
		Int("shards", r.Shards).
		String("partitioner", r.Partitioner).
		Sum()
}

// passDecode runs body through the single pass as handleSchedule does,
// treating every request as a cache miss.
func passDecode(body []byte, maxNodes int) (*schedulePass, *instance.Instance, string, int) {
	p := &schedulePass{buf: body}
	if err := p.parse(); err != nil {
		return p, nil, "", http.StatusBadRequest
	}
	if err := p.check(maxNodes); err != nil {
		return p, nil, "", errorStatus(err)
	}
	key := p.key()
	inst, err := p.instance()
	if err != nil {
		return p, nil, "", http.StatusBadRequest
	}
	return p, inst, key, http.StatusOK
}

// seedBodies are the fuzz seeds: the request bodies of the serve tests, and
// one body per registered algorithm in the field order of the service
// benchmark (graph last).
func seedBodies(tb testing.TB) [][]byte {
	reqs := []Request{
		{Graph: ring(8), Algorithm: solver.NameUniform, Battery: 3, Seed: 7},
		{Graph: ring(10), Algorithm: solver.NameUniform, Battery: 4, Seed: 3},
		{Graph: ring(6), Algorithm: solver.NameUniform, Battery: 2, Seed: 1, Async: true, TimeoutMS: 30},
		{Graph: ring(8), Algorithm: solver.NameFT, Battery: 4, K: 2, Seed: 5, Async: true},
		{Graph: ring(12), Algorithm: solver.NameGeneral, Batteries: []int{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}, Seed: 9},
		{Graph: ring(12), Algorithm: solver.NameGreedy, Batteries: []int{4, 1, 3, 2, 5, 1, 2, 6, 1, 3, 2, 4}, Seed: 5, Refine: solver.NameTabu, Budget: 2000, TimeBudgetMS: 1},
		{Graph: gridSpec(6, 7), Algorithm: solver.NameAuto, Battery: 3, Seed: 9, Refine: solver.NameTabu},
		{Graph: gridSpec(8, 8), Algorithm: solver.NameGreedy, Battery: 4, Shards: 4, Partitioner: "bfs"},
		{Graph: ring(4), Algorithm: "frob"},
		{Graph: GraphSpec{N: 2, Edges: [][2]int{{1, 1}}}, Algorithm: solver.NameUniform},
		{Graph: GraphSpec{N: 3, Edges: [][2]int{{0, 1}, {1, 0}}}, Algorithm: solver.NameUniform},
		{Graph: GraphSpec{N: 2, Edges: [][2]int{{0, 5}}}, Algorithm: solver.NameUniform},
		{Graph: ring(4), Algorithm: solver.NameUniform, Battery: -1},
		{Graph: ring(3), Algorithm: solver.NameUniform, Batteries: []int{1, 2, 1}},
		{Graph: ring(4), Algorithm: solver.NameUniform, Battery: 2, K: 2},
		{Graph: ring(4), Algorithm: solver.NameAnneal, Battery: 2, Refine: solver.NameTabu},
		{Graph: GraphSpec{N: 101}, Algorithm: solver.NameUniform, Battery: 1},
	}
	var out [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	for i, alg := range solver.Names() {
		for _, budgets := range []string{`"battery":5`, `"batteries":[4,7,5,9,4,6]`} {
			out = append(out, []byte(fmt.Sprintf(
				`{"seed":%d,"algorithm":%q,"tries":8,"kconst":2.5,%s,"graph":{"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[0,5],[1,4]]}}`,
				i+1, alg, budgets)))
		}
	}
	out = append(out,
		[]byte(`{"graph":{"n":3,"edges":[[1],[0,2,1]]},"algorithm":"greedy","battery":2}`),
		[]byte(`{"Algorithm":"greedy","ſeed":3,"graph":{"N":3,"edges":[[0,1]]},"battery":null,"battery":2} `),
		[]byte(`{"algorithm":"gr\u0065edy","graph":{"n":2},"graph":{"edges":[[0,1]]},"batteries":[5,6],"batteries":[null,2]}`),
		[]byte(`{"algorithm":"greedy","seed":-1,"graph":{"n":2}}`),
		[]byte(`{"algorithm":"greedy","k":1.0,"graph":{"n":2}}`),
		[]byte(`{"algorithm":"greedy","tries":1e2,"graph":{"n":2}}`),
		[]byte(`{"algorithm":"greedy","budget":99999999999999999999,"graph":{"n":2}}`),
		[]byte(`{"algorithm":"greedy","graph":{"n":2}} garbage`),
		[]byte(`{"algorithm":"greedy","graph":{"n":2}}{"x":1}`),
		[]byte(`null`),
		[]byte(` {"algorithm" : "greedy" , "battery":1, "graph" : { "n" : 4 , "edges" : [ [ 0 , 1 ] , [2,3],[3 ,0]] } } `),
		[]byte(`{"algorithm":"greedy","battery":1,"graph":{"n":4,"edges":[[0,1],[-1,2],[01,2],[1e0,2],[12345678901,1]]}}`),
		[]byte(`{"algorithm":"greedy","battery":1,"graph":{"n":4,"edges":[[0,1],[3,2],[1,0]]}}`),
		[]byte(`{"algorithm":"greedy","battery":1,"graph":{"n":4,"edges":[[0,1]]},"graph":{"edges":null},"graph":null}`),
	)
	return out
}

// FuzzScheduleRequest checks the single-pass request path against the
// reference: both accept or reject every body with the same status, and on
// accepted bodies they decode the same fields and the same edge set, build
// the same instance and produce the same key.
func FuzzScheduleRequest(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(b)
	}
	const maxNodes = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantInst, wantKey, wantStatus := refDecode(body, maxNodes)
		p, gotInst, gotKey, gotStatus := passDecode(body, maxNodes)
		if gotStatus != wantStatus {
			t.Fatalf("status %d, reference %d for %q", gotStatus, wantStatus, body)
		}
		if wantStatus != http.StatusOK {
			return
		}
		if gotKey != wantKey {
			t.Fatalf("key %s, reference %s for %q", gotKey, wantKey, body)
		}
		var edges []uint64
		for _, e := range want.Graph.Edges {
			edges = append(edges, graph.PackEdge(e[0], e[1]))
		}
		slices.Sort(edges)
		if !slices.Equal(p.pairs, edges) {
			t.Fatalf("edges %v, reference %v for %q", p.pairs, edges, body)
		}
		got := p.req
		if !slices.Equal(got.Batteries, want.Batteries) {
			t.Fatalf("batteries %v, reference %v for %q", got.Batteries, want.Batteries, body)
		}
		got.Batteries, want.Batteries, want.Graph.Edges = nil, nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fields %+v, reference %+v for %q", got, want, body)
		}
		if gotInst.Graph.Fingerprint() != wantInst.Graph.Fingerprint() ||
			!slices.Equal(gotInst.Budgets, wantInst.Budgets) || gotInst.K != wantInst.K {
			t.Fatalf("instance differs from the reference for %q", body)
		}
	})
}

// TestDecoderFieldNames pins the decoder's field tables to the json tags of
// Request and GraphSpec, the names encoding/json would match.
func TestDecoderFieldNames(t *testing.T) {
	tags := func(v any) []string {
		var out []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			out = append(out, name)
		}
		return out
	}
	if got, want := requestFields, tags(Request{}); !slices.Equal(got, want) {
		t.Fatalf("request fields %v, json tags %v", got, want)
	}
	if got, want := graphFields, tags(GraphSpec{}); !slices.Equal(got, want) {
		t.Fatalf("graph fields %v, json tags %v", got, want)
	}
}

// TestMalformedEdgesRejected pins that an edge that is not exactly two
// integers is a 400, on POST /v1/schedule and in a PATCH delta, instead of
// being zero-filled or truncated into some other edge.
func TestMalformedEdgesRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	base := solveRing(t, h, 6, Request{Algorithm: solver.NameUniform, Battery: 3, Seed: 1})

	for _, edge := range []string{`[]`, `[1]`, `[0,1,2]`, `[null,1]`, `null`} {
		body := `{"graph":{"n":3,"edges":[[0,1],` + edge + `]},"algorithm":"greedy","battery":2}`
		if w := post(h, "/v1/schedule", []byte(body)); w.Code != http.StatusBadRequest {
			t.Errorf("schedule edge %s: status %d, want 400 (%s)", edge, w.Code, w.Body.String())
		}
		for _, field := range []string{"add_edges", "remove_edges"} {
			body := `{"delta":{"add_nodes":1,"` + field + `":[` + edge + `]},"at":0}`
			if w := patch(h, base.Fingerprint, []byte(body)); w.Code != http.StatusBadRequest {
				t.Errorf("patch %s %s: status %d, want 400 (%s)", field, edge, w.Code, w.Body.String())
			}
		}
	}
	// The request reported as solved on {1,0},{0,2} before the check.
	body := `{"graph":{"n":3,"edges":[[1],[0,2,1]]},"algorithm":"greedy","battery":2}`
	if w := post(h, "/v1/schedule", []byte(body)); w.Code != http.StatusBadRequest {
		t.Errorf("reshaped edges: status %d, want 400", w.Code)
	}
	if got := counter(s, "serve.admitted"); got != 1 {
		t.Errorf("serve.admitted = %d, want 1 (only the base)", got)
	}
}

// TestTrailingDataRejected pins that every POST and PATCH body is exactly
// one JSON value: whitespace may follow it, nothing else.
func TestTrailingDataRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	sched := `{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]},"algorithm":"uniform","battery":2}`
	base := solveRing(t, h, 6, Request{Algorithm: solver.NameUniform, Battery: 3, Seed: 1})
	delta := `{"delta":{"add_nodes":1,"new_budgets":[3],"add_edges":[[0,6]]},"at":0}`
	exp := `{"id":"e1","quick":true,"trials":1}`
	for _, tail := range []string{` garbage`, `{"x":1}`, `}`, `]`, `,`, `null`} {
		if w := post(h, "/v1/schedule", []byte(sched+tail)); w.Code != http.StatusBadRequest {
			t.Errorf("schedule + %q: status %d, want 400", tail, w.Code)
		}
		if w := patch(h, base.Fingerprint, []byte(delta+tail)); w.Code != http.StatusBadRequest {
			t.Errorf("patch + %q: status %d, want 400", tail, w.Code)
		}
		if w := post(h, "/v1/experiment", []byte(exp+tail)); w.Code != http.StatusBadRequest {
			t.Errorf("experiment + %q: status %d, want 400", tail, w.Code)
		}
	}
	if w := post(h, "/v1/schedule", []byte(sched+" \n\t\r ")); w.Code != http.StatusOK {
		t.Errorf("schedule + whitespace: status %d, want 200 (%s)", w.Code, w.Body.String())
	}
	if w := patch(h, base.Fingerprint, []byte(delta+"\n")); w.Code != http.StatusOK {
		t.Errorf("patch + whitespace: status %d, want 200 (%s)", w.Code, w.Body.String())
	}
}

// legacyEncode is the response encoding every writer used before results
// carried a rendered body.
func legacyEncode(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // a response envelope always encodes
	return buf.Bytes()
}

// TestRenderedResponseGolden pins writeResult to the bytes json.Encoder
// with SetIndent wrote for the envelope, for every (cached, coalesced)
// delivery of a result that carries every field.
func TestRenderedResponseGolden(t *testing.T) {
	res := &Result{
		Key: "k", Kind: "reconfig", Algorithm: "greedy<&>", Lifetime: 7, Phases: 2,
		Experiment: "E1", Table: "a\tb\n\"c\"\n",
		Schedule:    json.RawMessage(`{"phases": [{"set": [0, 2], "duration": 3}, {"set": [], "duration": 4}]}`),
		SolveMS:     1.25,
		Fingerprint: "ab", PriorFingerprint: "cd", Overlap: 2, OverlapEnergy: 3,
		Degraded: true, Violation: true, Invalidated: 1, Mapping: []int{0, -1, 1},
	}
	var want [2][2][]byte
	for _, cached := range []bool{false, true} {
		for _, coalesced := range []bool{false, true} {
			want[b2i(cached)][b2i(coalesced)] = legacyEncode(response{Result: res, Cached: cached, Coalesced: coalesced})
		}
	}
	if err := res.render(); err != nil {
		t.Fatal(err)
	}
	if res.Schedule != nil || res.Mapping != nil || res.Table != "" {
		t.Fatal("render kept the wire-only payload next to the body")
	}
	for _, cached := range []bool{false, true} {
		for _, coalesced := range []bool{false, true} {
			w := httptest.NewRecorder()
			writeResult(w, http.StatusOK, res, cached, coalesced)
			if got := w.Body.Bytes(); !bytes.Equal(got, want[b2i(cached)][b2i(coalesced)]) {
				t.Errorf("cached=%v coalesced=%v:\n%s\nwant\n%s", cached, coalesced, got, want[b2i(cached)][b2i(coalesced)])
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("content type %q", ct)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestServedResponsesGolden pins the bytes of miss, hit, coalesced,
// /v1/jobs and PATCH responses to the legacy encoding of the envelope they
// carry, with the per-delivery flags each path sets.
func TestServedResponsesGolden(t *testing.T) {
	gate := &gateFault{entered: make(chan string, 1), release: make(chan struct{})}
	s := New(Config{Workers: 1, Fault: gate})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	check := func(name string, w *httptest.ResponseRecorder, cached, coalesced bool) response {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, w.Code, w.Body.String())
		}
		var resp response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Cached != cached || resp.Coalesced != coalesced {
			t.Fatalf("%s: cached=%v coalesced=%v, want %v %v", name, resp.Cached, resp.Coalesced, cached, coalesced)
		}
		if want := legacyEncode(resp); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("%s: body differs from the legacy encoding:\n%s\nwant\n%s", name, w.Body.Bytes(), want)
		}
		return resp
	}

	body := scheduleBody(t, Request{Graph: ring(9), Algorithm: solver.NameUniform, Battery: 3, Seed: 2})
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 2)
	wg.Add(1)
	go func() { defer wg.Done(); recs[0] = post(h, "/v1/schedule", body) }()
	<-gate.entered
	wg.Add(1)
	go func() { defer wg.Done(); recs[1] = post(h, "/v1/schedule", body) }()
	waitCounter(t, s, "serve.coalesced", 1)
	close(gate.release)
	wg.Wait()

	miss := check("miss", recs[0], false, false)
	check("coalesced", recs[1], false, true)
	check("hit", post(h, "/v1/schedule", body), true, false)
	check("job", get(h, "/v1/jobs/"+miss.Key), true, false)
	if len(miss.Schedule) == 0 || miss.Fingerprint == "" {
		t.Fatalf("miss response lacks its schedule or fingerprint: %+v", miss)
	}

	pbody := patchBody(t, PatchRequest{Delta: growDelta(9, 3), At: 0})
	first := check("patch", patch(h, miss.Fingerprint, pbody), false, false)
	if len(first.Mapping) != 9 {
		t.Fatalf("patch response mapping %v, want 9 entries", first.Mapping)
	}
	check("patch retry", patch(h, miss.Fingerprint, pbody), true, false)
}

// discardWriter is an http.ResponseWriter that keeps nothing, so measuring
// the handler's allocations does not measure a growing recorder buffer.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// circulant returns the graph over n nodes with every node joined to its
// next deg/2 neighbors around a ring.
func circulant(n, deg int) GraphSpec {
	var edges [][2]int
	for v := 0; v < n; v++ {
		for d := 1; d <= deg/2; d++ {
			edges = append(edges, [2]int{v, (v + d) % n})
		}
	}
	return GraphSpec{N: n, Edges: edges}
}

// TestScheduleHitAllocsFlat pins that a cache hit allocates the same number
// of times for a 128-node and a 2048-node request: the request path of a
// hit does no work per edge or per node that allocates.
func TestScheduleHitAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries, so allocation counts vary")
	}
	allocs := func(n int) float64 {
		s := New(Config{Workers: 1})
		defer s.Shutdown(context.Background())
		h := s.Handler()
		body := scheduleBody(t, Request{Graph: circulant(n, 12), Algorithm: solver.NameGreedy, Battery: 3, Seed: 1})
		if w := post(h, "/v1/schedule", body); w.Code != http.StatusOK {
			t.Fatalf("n=%d: miss status %d: %s", n, w.Code, w.Body.String())
		}
		w := &discardWriter{header: http.Header{}}
		r := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
		r.ContentLength = int64(len(body))
		rd := bytes.NewReader(body)
		r.Body = io.NopCloser(rd)
		got := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			h.ServeHTTP(w, r)
		})
		if w.code != http.StatusOK {
			t.Fatalf("n=%d: hit status %d", n, w.code)
		}
		if hits := counter(s, "serve.cache_hits"); hits < 50 {
			t.Fatalf("n=%d: %d cache hits, want every run a hit", n, hits)
		}
		return got
	}
	small, large := allocs(128), allocs(2048)
	t.Logf("allocations per hit: %v at n=128, %v at n=2048", small, large)
	if small != large {
		t.Fatalf("allocations per hit grow with the request: %v at n=128, %v at n=2048", small, large)
	}
}

// TestClaimedLengthBoundsNoAllocation pins that the buffer sized from a
// request's Content-Length is capped: a header that claims a body near the
// 64 MiB limit, followed by a short body, must not make the handler
// allocate for the claimed size.
func TestClaimedLengthBoundsNoAllocation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	body := scheduleBody(t, Request{Graph: circulant(16, 4), Algorithm: solver.NameGreedy, Battery: 2, Seed: 1})
	if w := post(h, "/v1/schedule", body); w.Code != http.StatusOK {
		t.Fatalf("miss status %d: %s", w.Code, w.Body.String())
	}
	const runs = 3
	w := &discardWriter{header: http.Header{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		r.ContentLength = maxBodyBytes - 1
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1<<20 {
		t.Fatalf("a short body claiming %d bytes allocated %d bytes per request", maxBodyBytes-1, per)
	}
}
