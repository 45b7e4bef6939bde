// Package bench is the repository's performance trajectory: a fixed suite of
// kernel microbenchmarks and end-to-end runs whose results are serialized to
// BENCH_<PR>.json files at the repo root, one per performance-relevant PR, so
// speedups and regressions are visible across the stacked-PR history.
//
// The kernel cases benchmark the allocation-free domset.Checker against
// frozen copies of the pre-Checker implementations (the []bool-allocating
// adjacency walks that shipped before PR 2), yielding an honest speedup
// figure that later refactors cannot silently erode: the baselines live here,
// not in the packages they came from.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/domset"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/reconfig"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sensim"
	"repro/internal/serve"
	"repro/internal/solver"
)

// Schema identifies the BENCH_*.json layout; bump on breaking changes.
const Schema = "repro-bench/v1"

// Case is one benchmark result. BaselineNsPerOp and Speedup are zero for
// cases without a frozen pre-change baseline (the end-to-end runs).
type Case struct {
	Name            string  `json:"name"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

// Report is the top-level BENCH_*.json document.
type Report struct {
	Schema      string  `json:"schema"`
	PR          string  `json:"pr"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	Quick       bool    `json:"quick"`
	GeneratedAt string  `json:"generated_at"`
	Cases       []Case  `json:"cases"`
	Curves      []Curve `json:"curves,omitempty"`
}

// CurvePoint is one point of a lifetime-vs-budget refinement curve: the mean
// schedule lifetime over the trials when the refiner runs under that move
// budget.
type CurvePoint struct {
	Budget   int     `json:"budget"`
	Lifetime float64 `json:"lifetime"`
}

// Curve is the anytime-quality trajectory of one refiner on one graph
// family: lifetime as a function of move budget, alongside the schedules it
// must beat — the unrefined base it starts from, the prune post-pass, and
// the paper's WHP algorithm. Monotone Points that clear BaseLifetime are the
// refinement acceptance datum of PR 8, the quality-side counterpart of the
// timing Cases.
type Curve struct {
	Family        string       `json:"family"`
	Refiner       string       `json:"refiner"`
	Base          string       `json:"base"`
	BaseLifetime  float64      `json:"base_lifetime"`
	PruneLifetime float64      `json:"prune_lifetime"`
	WHPLifetime   float64      `json:"whp_lifetime"`
	Points        []CurvePoint `json:"points"`
}

// baselineCoveredCount is the frozen pre-PR-2 sensim.coveredCount: it
// allocates a fresh membership slice per call and walks adjacency lists.
// Kept verbatim modulo taking g/alive instead of a Network and filtering
// dead members (the original's caller passed only alive nodes, so the filter
// was implicit). Do not "optimize" it — its cost IS the datum.
func baselineCoveredCount(g *graph.Graph, serving []int, k int, alive []bool) int {
	in := make([]bool, g.N())
	for _, v := range serving {
		if alive == nil || alive[v] {
			in[v] = true
		}
	}
	covered := 0
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		count := 0
		if in[v] {
			count++
		}
		for _, u := range g.Neighbors(v) {
			if in[u] {
				count++
				if count >= k {
					break
				}
			}
		}
		if count >= k {
			covered++
		}
	}
	return covered
}

// baselineIsKDominating is the frozen pre-PR-2 domset.IsKDominating.
func baselineIsKDominating(g *graph.Graph, set []int, k int, alive []bool) bool {
	in := make([]bool, g.N())
	for _, v := range set {
		if v < 0 || v >= g.N() {
			panic(fmt.Sprintf("domset: node %d out of range", v))
		}
		if alive == nil || alive[v] {
			in[v] = true
		}
	}
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		count := 0
		if in[v] {
			count++
		}
		for _, u := range g.Neighbors(v) {
			if in[u] {
				count++
				if count >= k {
					break
				}
			}
		}
		if count < k {
			return false
		}
	}
	return true
}

// kernelInstance is a shared fixture: a connected-ish GNP graph with a
// greedy k-dominating set per benchmarked k and an all-alive mask. The sets
// are genuinely k-dominating so the verifier answers true and neither
// implementation can exit early — the hot-loop workload (validating the
// valid phases of a schedule), measured apples to apples.
type kernelInstance struct {
	g     *graph.Graph
	sets  map[int][]int
	alive []bool
}

func newKernelInstance(n int, ks []int) kernelInstance {
	p := 10 * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	g := gen.GNP(n, p, rng.New(uint64(n)))
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	sets := make(map[int][]int, len(ks))
	for _, k := range ks {
		set := domset.GreedyK(g, k, nil, nil)
		if set == nil {
			panic(fmt.Sprintf("bench: no %d-dominating set on the n=%d fixture", k, n))
		}
		sets[k] = set
	}
	return kernelInstance{g: g, sets: sets, alive: alive}
}

func run(fn func(b *testing.B)) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
}

func toCase(name string, r testing.BenchmarkResult, baseline float64) Case {
	c := Case{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if baseline > 0 && c.NsPerOp > 0 {
		c.BaselineNsPerOp = baseline
		c.Speedup = baseline / c.NsPerOp
	}
	return c
}

// Run executes the fixed suite. quick shrinks graph sizes and experiment
// sweeps so CI smoke jobs finish in seconds.
func Run(quick bool) Report {
	rep := Report{
		Schema:      Schema,
		PR:          "PR10",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Quick:       quick,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}

	sizes := []int{1024, 4096}
	if quick {
		sizes = []int{256}
	}
	ks := []int{1, 2}
	for _, n := range sizes {
		inst := newKernelInstance(n, ks)
		ck := domset.NewChecker(inst.g)
		for _, k := range ks {
			set := inst.sets[k]
			ck.CoveredCount(set, k, inst.alive) // warm scratch
			base := run(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baselineCoveredCount(inst.g, set, k, inst.alive)
				}
			})
			opt := run(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ck.CoveredCount(set, k, inst.alive)
				}
			})
			rep.Cases = append(rep.Cases,
				toCase(fmt.Sprintf("kernel/CoveredCount/n=%d/k=%d", n, k), opt, float64(base.NsPerOp())))

			base = run(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baselineIsKDominating(inst.g, set, k, inst.alive)
				}
			})
			opt = run(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ck.IsKDominating(set, k, inst.alive)
				}
			})
			rep.Cases = append(rep.Cases,
				toCase(fmt.Sprintf("kernel/IsKDominating/n=%d/k=%d", n, k), opt, float64(base.NsPerOp())))

			// kernel/Flip: the single-node-delta workload of PR 7. The
			// baseline is the CURRENT fold path — what a one-node change
			// used to cost (full O(n·Δ/64) re-fold per query). The measured
			// arm is one O(deg) Flip plus one O(1) coverage query per op;
			// the flipped node alternates in and out of the set across
			// iterations, so every op is exactly one membership delta —
			// the heal/reconfig/prune access pattern.
			sess := ck.Begin(set, k, inst.alive)
			v := set[len(set)/2]
			foldDelta := run(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ck.CoveredCount(set, k, inst.alive)
				}
			})
			flip := run(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sess.Flip(v)
					sess.CoveredCount()
					sess.Commit() // non-speculative caller: keep the log bounded
				}
				if !sess.Contains(v) {
					sess.Flip(v) // leave the fixture set intact for the next case
				}
			})
			rep.Cases = append(rep.Cases,
				toCase(fmt.Sprintf("kernel/Flip/n=%d/k=%d", n, k), flip, float64(foldDelta.NsPerOp())))
		}
	}

	rep.Cases = append(rep.Cases, runFoldParCases(quick)...)
	rep.Cases = append(rep.Cases, runSolverCases(quick)...)
	rep.Cases = append(rep.Cases, runGridCases(quick)...)
	refineCases, curves := runRefineCases(quick)
	rep.Cases = append(rep.Cases, refineCases...)
	rep.Curves = curves
	rep.Cases = append(rep.Cases, runSensimCases(quick)...)
	rep.Cases = append(rep.Cases, runServeCases(quick)...)
	rep.Cases = append(rep.Cases, runReconfigCases(quick)...)
	rep.Cases = append(rep.Cases, runShardCases(quick)...)
	rep.Cases = append(rep.Cases, runExperimentCase(quick))
	return rep
}

// runRefineCases benchmarks the PR 8 anytime refiners in both dimensions.
// The timing Cases measure one full refined solve (base draw + the whole
// move budget) against the plain greedy baseline it starts from — like
// solver/prune, Speedup is an overhead ratio and values far below 1 are the
// expected price of the extra work. The Curves record the quality side:
// mean lifetime at three move budgets per refiner per family, with the
// greedy/prune/WHP reference lifetimes on the same instances. Instances use
// heterogeneous batteries in [1, 2b]: with uniform batteries greedy already
// sits on the min-degree bottleneck bound and local search has nothing to
// rebalance.
func runRefineCases(quick bool) ([]Case, []Curve) {
	n := 128
	budgets := []int{2000, 10000, 50000}
	trials := 5
	if quick {
		n, budgets, trials = 64, []int{500, 2000, 8000}, 3
	}
	const b = 10

	families := []struct {
		name  string
		build func(src *rng.Source) *graph.Graph
	}{
		{"gnp", func(src *rng.Source) *graph.Graph {
			return gen.GNP(n, 6*math.Log(float64(n))/float64(n), src)
		}},
		{"udg", func(src *rng.Source) *graph.Graph {
			g, _ := gen.RandomUDG(n, 1, 2.0*math.Sqrt(math.Log(float64(n))/float64(n)), src)
			return g
		}},
	}

	buildInstance := func(fam int, trial int) (*graph.Graph, []int, *rng.Source) {
		src := rng.New(uint64(8000 + 100*fam + trial))
		g := families[fam].build(src.Split())
		bsrc := src.Split()
		bt := make([]int, g.N())
		for v := range bt {
			bt[v] = 1 + bsrc.Intn(2*b)
		}
		return g, bt, src
	}
	meanLifetime := func(fam int, spec solver.Spec, budget int) float64 {
		total := 0.0
		for trial := 0; trial < trials; trial++ {
			g, bt, src := buildInstance(fam, trial)
			s, err := solver.Solve(instance.New(g, bt), spec,
				solver.Options{Tries: 10, Budget: budget, Src: src})
			if err != nil {
				panic(fmt.Sprintf("bench: refine %s: %v", spec.Name, err))
			}
			total += float64(s.Lifetime())
		}
		return total / float64(trials)
	}

	var curves []Curve
	for fam := range families {
		base := meanLifetime(fam, solver.Spec{Name: solver.NameGreedy}, 0)
		prune := meanLifetime(fam, solver.Spec{Name: solver.NamePrune}, 0)
		whp := meanLifetime(fam, solver.Spec{Name: solver.NameGeneral}, 0)
		for _, refiner := range []string{solver.NameTabu, solver.NameAnneal} {
			c := Curve{
				Family: families[fam].name, Refiner: refiner, Base: solver.NameGreedy,
				BaseLifetime: base, PruneLifetime: prune, WHPLifetime: whp,
			}
			for _, budget := range budgets {
				spec := solver.Spec{Name: refiner, Base: solver.NameGreedy}
				c.Points = append(c.Points, CurvePoint{
					Budget: budget, Lifetime: meanLifetime(fam, spec, budget),
				})
			}
			curves = append(curves, c)
		}
	}

	// Timing: one refined solve per op at the largest budget on the first
	// family's first instance, against the greedy base draw alone.
	g, bt, _ := buildInstance(0, 0)
	in := instance.New(g, bt)
	maxBudget := budgets[len(budgets)-1]
	greedyRun := run(func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			if _, err := solver.Solve(in, solver.Spec{Name: solver.NameGreedy},
				solver.Options{Tries: 1, Src: rng.New(uint64(i) + 1)}); err != nil {
				tb.Fatalf("solver.Solve(greedy): %v", err)
			}
		}
	})
	cases := make([]Case, 0, 2)
	for _, refiner := range []string{solver.NameTabu, solver.NameAnneal} {
		r := run(func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				if _, err := solver.Solve(in,
					solver.Spec{Name: refiner, Base: solver.NameGreedy},
					solver.Options{Tries: 1, Budget: maxBudget, Src: rng.New(uint64(i) + 1)}); err != nil {
					tb.Fatalf("solver.Solve(%s): %v", refiner, err)
				}
			}
		})
		cases = append(cases, toCase(
			fmt.Sprintf("solver/refine=%s/budget=%d/n=%d", refiner, maxBudget, n),
			r, float64(greedyRun.NsPerOp())))
	}
	return cases, curves
}

// runSolverCases benchmarks the PR 5 solver driver in its two execution
// modes on a workload where the retry loop genuinely retries: Algorithm 1
// with the aggressive color-range constant K=0.5 on a dense graph targets
// far more phases than a coloring usually validates, so the w.h.p. target is
// unattainable and every try runs (with the paper's K=3 the first attempt
// hits the guarantee and there is nothing to race). A sequential Solve
// with 32 tries versus a width-4 race of 8 tries per attempt stream:
// total attempt work is equal by construction, so the raced case carries
// the sequential time as its baseline and its Speedup field is the
// wall-clock win from racing — bounded by min(4, cores), so on a
// single-core runner it degenerates to ≈ 1.0 minus the transient-pool
// overhead, which is itself worth tracking.
func runSolverCases(quick bool) []Case {
	n := 128
	if quick {
		n = 96
	}
	g := gen.GNP(n, 8*math.Log(float64(n))/float64(n), rng.New(5))
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = 8
	}
	spec := solver.Spec{Name: solver.NameUniform, KConst: 0.5}
	in := instance.New(g, budgets)
	seq := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(in, spec,
				solver.Options{Tries: 32, Src: rng.New(uint64(i) + 1)}); err != nil {
				b.Fatalf("solver.Solve: %v", err)
			}
		}
	})
	raced := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(in, spec,
				solver.Options{Tries: 8, Src: rng.New(uint64(i) + 1), RaceWidth: 4}); err != nil {
				b.Fatalf("solver.Solve(race): %v", err)
			}
		}
	})
	seqNs := float64(seq.NsPerOp())

	// solver/prune: the PR 7 refinement pass (greedy + per-phase speculative
	// pruning on the incremental session + re-extension) against the plain
	// greedy baseline it refines. Speedup here is an overhead ratio — the
	// refiner does strictly more work than greedy, so values below 1 are
	// expected; the datum tracks how cheap the session keeps that work.
	pruneBudgets := make([]int, n)
	for i := range pruneBudgets {
		pruneBudgets[i] = 8
	}
	pruneIn := instance.New(g, pruneBudgets)
	greedyRun := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(pruneIn, solver.Spec{Name: solver.NameGreedy},
				solver.Options{Tries: 1, Src: rng.New(uint64(i) + 1)}); err != nil {
				b.Fatalf("solver.Solve(greedy): %v", err)
			}
		}
	})
	pruneRun := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(pruneIn, solver.Spec{Name: solver.NamePrune},
				solver.Options{Tries: 1, Src: rng.New(uint64(i) + 1)}); err != nil {
				b.Fatalf("solver.Solve(prune): %v", err)
			}
		}
	})

	return []Case{
		toCase(fmt.Sprintf("solver/Solve/tries=32/n=%d", n), seq, 0),
		toCase(fmt.Sprintf("solver/Solve/race=4/tries=8/n=%d", n), raced, seqNs),
		toCase(fmt.Sprintf("solver/prune/n=%d", n), pruneRun, float64(greedyRun.NsPerOp())),
	}
}

// runGridCases benchmarks the PR 10 structured-instance path on the 50×50
// grid (quick: 20×20), uniform battery 3: the structure-detection pass
// alone, and the auto portfolio end to end (classify + dispatch + tile +
// driver validation; a fresh Instance per op, so every op pays the
// classification a real request pays).
//
// The grid-vs-uniform acceptance datum is the auto case's baseline pair.
// Uniform on a grid is bimodal: with the default color range its WHP
// guarantee (δ = 2) is one color class, so the first draw hits lifetime b
// and the solver stops instantly — fast, but less than half the tiling's
// lifetime, and no retry budget improves it. The only configuration that
// even attempts a comparable lifetime is an aggressive color range
// (KConst = 0.25 asks for more classes), and there every random class
// fails domination: all 300 tries run and deliver lifetime 0. That
// searching arm is the honest "uniform chasing equal-or-better lifetime"
// wall clock, and auto's Speedup against it is the pinned ≥10x headline
// (observed ~30-40x; lifetimes on the full-scale instance: auto 7,
// uniform-instant 3, uniform-search 0). The instant arm is recorded as its
// own case for transparency. greedy — auto's off-grid fallback, lifetime 6
// here — is the second baseline pair, pinning what dispatch-on-structure
// saves against the solver auto would otherwise run.
func runGridCases(quick bool) []Case {
	side := 50
	if quick {
		side = 20
	}
	g := gen.Grid(side, side)
	budgets := make([]int, g.N())
	for i := range budgets {
		budgets[i] = 3
	}
	in := instance.New(g, budgets)

	classify := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			instance.Classify(g, instance.Hint{})
		}
	})
	auto := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(instance.New(g, budgets), solver.Spec{Name: solver.NameAuto},
				solver.Options{Src: rng.New(uint64(i) + 1)}); err != nil {
				b.Fatalf("solver.Solve(auto): %v", err)
			}
		}
	})
	instant := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(in, solver.Spec{Name: solver.NameUniform},
				solver.Options{Tries: 300, Src: rng.New(uint64(i) + 1)}); err != nil {
				b.Fatalf("solver.Solve(uniform): %v", err)
			}
		}
	})
	search := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(in, solver.Spec{Name: solver.NameUniform, KConst: 0.25},
				solver.Options{Tries: 300, Src: rng.New(uint64(i) + 1)}); err != nil {
				b.Fatalf("solver.Solve(uniform search): %v", err)
			}
		}
	})
	greedy := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Solve(in, solver.Spec{Name: solver.NameGreedy},
				solver.Options{Tries: 1, Src: rng.New(uint64(i) + 1)}); err != nil {
				b.Fatalf("solver.Solve(greedy): %v", err)
			}
		}
	})

	n := g.N()
	return []Case{
		toCase(fmt.Sprintf("instance/Classify/grid=%dx%d", side, side), classify, 0),
		toCase(fmt.Sprintf("solver/uniform/grid=%dx%d/instant", side, side), instant, 0),
		toCase(fmt.Sprintf("solver/auto/grid=%dx%d/vs=uniform-search/n=%d", side, side, n),
			auto, float64(search.NsPerOp())),
		toCase(fmt.Sprintf("solver/auto/grid=%dx%d/vs=greedy-fallback/n=%d", side, side, n),
			auto, float64(greedy.NsPerOp())),
	}
}

// runServeCases benchmarks the serving request path end to end (HTTP decode,
// admission, solve, encode) in its three regimes: a cache miss computes, a
// cache hit skips the solve, and eight identical concurrent requests
// coalesce onto one computation. The workload is chosen so the solve
// actually dominates the path: a 2-tolerant general schedule on a sparse
// graph, where the WHP target is rarely attainable and all 30 tries run
// (the easy workloads early-exit after one try and the path degenerates to
// JSON handling, which the cache cannot avoid — every request re-validates
// and re-hashes its graph to derive the key). The hit and coalesce cases
// Baselines: the hit case carries one miss (Speedup = miss cost avoided per
// request), the coalesce case carries eight misses — the work its batch of
// eight requests would have cost without single-flight — so Speedup above 1
// is the coalescing win.
func runServeCases(quick bool) []Case {
	n := 128
	if quick {
		n = 96
	}
	src := rng.New(5)
	g := gen.GNP(n, 2*math.Log(float64(n))/float64(n), src)
	spec := serve.GraphSpec{N: n}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if v < int(u) {
				spec.Edges = append(spec.Edges, [2]int{v, int(u)})
			}
		}
	}
	body := func(seed uint64) []byte {
		b, err := json.Marshal(serve.Request{
			Graph: spec, Algorithm: solver.NameGeneralFT, K: 2, Battery: 32, Seed: seed, Tries: 30,
		})
		if err != nil {
			panic(err)
		}
		return b
	}
	post := func(h http.Handler, payload []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(payload)))
		if w.Code != http.StatusOK {
			panic(fmt.Sprintf("bench: serve returned %d: %s", w.Code, w.Body.String()))
		}
	}

	// Cache miss: a fresh seed every iteration defeats both cache and
	// coalescing, so every request pays the full solve.
	sMiss := serve.New(serve.Config{CacheSize: 4})
	hMiss := sMiss.Handler()
	miss := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(hMiss, body(uint64(i)+1))
		}
	})
	sMiss.Shutdown(context.Background()) //nolint:errcheck // bench teardown
	missNs := float64(miss.NsPerOp())

	// Cache hit: the identical request repeated; after the first fill every
	// iteration is an LRU lookup.
	sHit := serve.New(serve.Config{})
	hHit := sHit.Handler()
	warm := body(1)
	post(hHit, warm)
	hit := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(hHit, warm)
		}
	})
	sHit.Shutdown(context.Background()) //nolint:errcheck // bench teardown

	// Coalesce: eight concurrent identical requests per iteration, with a
	// per-iteration seed so the batch always misses the cache — the eight
	// answers share one computation.
	sCo := serve.New(serve.Config{CacheSize: 4})
	hCo := sCo.Handler()
	coalesce := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			payload := body(uint64(i) + 1)
			var wg sync.WaitGroup
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					post(hCo, payload)
				}()
			}
			wg.Wait()
		}
	})
	sCo.Shutdown(context.Background()) //nolint:errcheck // bench teardown

	return []Case{
		toCase(fmt.Sprintf("serve/schedule/cache=miss/n=%d", n), miss, 0),
		toCase(fmt.Sprintf("serve/schedule/cache=hit/n=%d", n), hit, missNs),
		toCase(fmt.Sprintf("serve/schedule/coalesce=8/n=%d", n), coalesce, 8*missNs),
	}
}

// runReconfigCases benchmarks the PR 6 reconfiguration path at three depths.
// The kernel pair: graph.Delta.Apply (a node swap — remove, re-add, rewire —
// the per-change rebuild cost every reconfiguration pays) and
// reconfig.Compute (the full transition planner: apply the delta, solve the
// incoming schedule, verify every slot, charge the overlap). The service
// pair: PATCH /v1/schedule/{fp} end to end, miss versus hit. The patch delta
// removes and re-adds the same edge, so the post-delta fingerprint equals
// the prior one and the chain of patch results stays addressable across
// iterations; the miss server runs with a single-entry cache so each
// completed patch replaces the last and the fingerprint always resolves to
// exactly one base. The hit case carries the miss cost as its baseline —
// Speedup is the planner work a retried PATCH avoids.
func runReconfigCases(quick bool) []Case {
	n := 128
	if quick {
		n = 96
	}
	src := rng.New(6)
	g := gen.GNP(n, 8*math.Log(float64(n))/float64(n), src)
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = 8
	}
	swap := graph.Delta{
		RemoveNodes: []int{n - 1},
		AddNodes:    1,
		NewBudgets:  []int{8},
		AddEdges:    [][2]int{{0, n - 1}, {1, n - 1}, {2, n - 1}},
	}
	apply := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := swap.Apply(g, budgets); err != nil {
				b.Fatalf("Delta.Apply: %v", err)
			}
		}
	})

	old := sched.Replan(g, budgets, 1, nil)
	at := 2
	if old.Lifetime() <= at {
		panic(fmt.Sprintf("bench: reconfig fixture lifetime %d too short", old.Lifetime()))
	}
	residual := make([]int, n)
	for v, used := range old.UsagePrefix(n, at) {
		residual[v] = budgets[v] - used
	}
	compute := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reconfig.Compute(instance.New(g, residual), reconfig.Request{
				Old: old, At: at, Delta: swap,
				Overlap: 2, Seed: uint64(i) + 1, Tries: 8,
			}); err != nil {
				b.Fatalf("reconfig.Compute: %v", err)
			}
		}
	})

	spec := serve.GraphSpec{N: n}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if v < int(u) {
				spec.Edges = append(spec.Edges, [2]int{v, int(u)})
			}
		}
	}
	solveBody, err := json.Marshal(serve.Request{
		Graph: spec, Algorithm: solver.NameUniform, Battery: 8, Seed: 1, Tries: 8,
	})
	if err != nil {
		panic(err)
	}
	if len(g.Neighbors(0)) == 0 {
		panic("bench: reconfig fixture has an isolated node 0")
	}
	e := [2]int{0, int(g.Neighbors(0)[0])}
	patchBody := func(seed uint64) []byte {
		b, err := json.Marshal(serve.PatchRequest{
			Delta: graph.Delta{RemoveEdges: [][2]int{e}, AddEdges: [][2]int{e}},
			Seed:  seed, Tries: 8,
		})
		if err != nil {
			panic(err)
		}
		return b
	}
	do := func(h http.Handler, method, path string, payload []byte) []byte {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(payload)))
		if w.Code != http.StatusOK {
			panic(fmt.Sprintf("bench: %s %s returned %d: %s", method, path, w.Code, w.Body.String()))
		}
		return w.Body.Bytes()
	}
	fingerprint := func(raw []byte) string {
		var res struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(raw, &res); err != nil || res.Fingerprint == "" {
			panic(fmt.Sprintf("bench: schedule response carries no fingerprint: %v", err))
		}
		return res.Fingerprint
	}

	// Miss: a fresh seed per iteration forces a new plan; the edge-swap delta
	// keeps the fingerprint fixed and the single-entry cache keeps the base
	// unique, so every iteration pays Compute plus the invalidation sweep.
	sMiss := serve.New(serve.Config{CacheSize: 1})
	hMiss := sMiss.Handler()
	fp := fingerprint(do(hMiss, http.MethodPost, "/v1/schedule", solveBody))
	miss := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			do(hMiss, http.MethodPatch, "/v1/schedule/"+fp, patchBody(uint64(i)+1))
		}
	})
	sMiss.Shutdown(context.Background()) //nolint:errcheck // bench teardown
	missNs := float64(miss.NsPerOp())

	// Hit: the identical PATCH retried; after the warm-up every iteration is
	// answered by the early cache check under the patch key.
	sHit := serve.New(serve.Config{})
	hHit := sHit.Handler()
	fpHit := fingerprint(do(hHit, http.MethodPost, "/v1/schedule", solveBody))
	warm := patchBody(1)
	do(hHit, http.MethodPatch, "/v1/schedule/"+fpHit, warm)
	hit := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			do(hHit, http.MethodPatch, "/v1/schedule/"+fpHit, warm)
		}
	})
	sHit.Shutdown(context.Background()) //nolint:errcheck // bench teardown

	return []Case{
		toCase(fmt.Sprintf("reconfig/DeltaApply/n=%d", n), apply, 0),
		toCase(fmt.Sprintf("reconfig/Compute/overlap=2/n=%d", n), compute, 0),
		toCase(fmt.Sprintf("serve/patch/cache=miss/n=%d", n), miss, 0),
		toCase(fmt.Sprintf("serve/patch/cache=hit/n=%d", n), hit, missNs),
	}
}

// runSensimCases benchmarks a full sensim.Run execution: a general-algorithm
// schedule on a GNP network, rebuilt (cheaply) every iteration because Run
// drains it.
// It reports three cases: the plain run (obs off, the instrumented-but-idle
// hot path), the same run with a metrics sink attached, and the same run
// with a trace sink consuming every event. The obs=on cases carry the obs=off
// time as their baseline, so their Speedup field is the overhead ratio
// (1.0 = free; 0.5 = tracing doubled the runtime).
func runSensimCases(quick bool) []Case {
	n := 512
	if quick {
		n = 128
	}
	src := rng.New(42)
	g := gen.GNP(n, 8*math.Log(float64(n))/float64(n), src)
	b := make([]int, n)
	for i := range b {
		b[i] = 4 + src.Intn(4)
	}
	s, err := solver.Solve(instance.New(g, b), solver.Spec{Name: solver.NameGeneral},
		solver.Options{Tries: 5, Src: rng.New(7)})
	if err != nil {
		panic(fmt.Sprintf("bench: general fixture: %v", err))
	}
	off := run(func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			net := energy.NewNetwork(g, b)
			sensim.Run(net, s, sensim.Options{K: 1})
		}
	})
	reg := obs.NewRegistry()
	metricsHooks := obs.Hooks{Trace: obs.NewMetricsSink(reg)}
	withMetrics := run(func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			net := energy.NewNetwork(g, b)
			sensim.Run(net, s, sensim.Options{K: 1, Hooks: metricsHooks})
		}
	})
	var sink discardTracer
	traceHooks := obs.Hooks{Trace: &sink}
	withTrace := run(func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			net := energy.NewNetwork(g, b)
			sensim.Run(net, s, sensim.Options{K: 1, Hooks: traceHooks})
		}
	})
	offNs := float64(off.NsPerOp())
	return []Case{
		toCase(fmt.Sprintf("e2e/sensim.Run/obs=off/n=%d", n), off, 0),
		toCase(fmt.Sprintf("e2e/sensim.Run/obs=metrics/n=%d", n), withMetrics, offNs),
		toCase(fmt.Sprintf("e2e/sensim.Run/obs=trace/n=%d", n), withTrace, offNs),
	}
}

// discardTracer counts events and drops them — the cheapest possible
// non-nil sink, isolating the emission cost itself.
type discardTracer struct{ events uint64 }

func (d *discardTracer) Emit(obs.Event) { d.events++ }

// runExperimentCase times one full experiment table (E1, the paper's
// Figure 1 reproduction) — the coarsest end-to-end signal in the suite.
func runExperimentCase(quick bool) Case {
	cfg := experiments.Config{Seed: 42, Quick: true}
	if !quick {
		cfg.Trials = 5
	}
	r := run(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Run("E1", cfg); err != nil {
				b.Fatalf("E1: %v", err)
			}
		}
	})
	return toCase("e2e/experiment/E1", r, 0)
}
