package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/solver"
)

// GraphSpec is the wire form of a network graph: a node count and an
// undirected edge list. The service decodes it on its own single pass
// (schedulePass), which validates rather than panics — every edge exactly
// two integers in [0, N), no self-loops, no duplicates — because it is the
// trust boundary of the service.
type GraphSpec struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// errTooLarge marks a request rejected for size (HTTP 413) rather than
// shape (HTTP 400).
type errTooLarge struct{ msg string }

func (e errTooLarge) Error() string { return e.msg }

// Request is a schedule request: a graph, per-node duty budgets, and
// algorithm parameters. Delivery options (TimeoutMS, Async) are not part of
// the canonical cache key — two clients asking for the same schedule with
// different patience share one computation and one cache entry.
type Request struct {
	Graph     GraphSpec `json:"graph"`
	Algorithm string    `json:"algorithm"`
	// Battery is the uniform per-node budget; Batteries, when non-empty,
	// gives per-node budgets instead (required length N). The uniform
	// algorithms (uniform, ft) accept Batteries only if all entries agree.
	Battery   int     `json:"battery,omitempty"`
	Batteries []int   `json:"batteries,omitempty"`
	K         int     `json:"k,omitempty"`      // domination tolerance; default 1
	KConst    float64 `json:"kconst,omitempty"` // color-range constant; default 3
	Seed      uint64  `json:"seed,omitempty"`   // randomness seed; default 1
	Tries     int     `json:"tries,omitempty"`  // WHP retry budget; default 30
	// Refine names a refinement solver ("tabu", "anneal") to run on top of
	// Algorithm's schedule; empty means no refinement. Budget bounds the
	// refiner's candidate moves (0 = solver default), and TimeBudgetMS is the
	// wall-clock solve budget — unlike TimeoutMS it does not fail the request
	// but truncates refinement to the best schedule found so far. All three
	// change the response, so they are part of the cache key.
	Refine       string `json:"refine,omitempty"`
	Budget       int    `json:"budget,omitempty"`
	TimeBudgetMS int    `json:"time_budget_ms,omitempty"`
	// Shards > 1 partitions the graph (internal/shard), solves every shard
	// independently against the server's compositional shard cache, and
	// stitches the results with boundary repair. 0 or 1 solves whole.
	// Partitioner names the strategy; service graphs arrive as edge lists
	// with no coordinates, so only "bfs" (the default) is accepted. Both
	// change the response, so both are part of the cache key.
	Shards      int    `json:"shards,omitempty"`
	Partitioner string `json:"partitioner,omitempty"`
	TimeoutMS   int    `json:"timeout_ms,omitempty"` // per-request deadline; default server-side
	Async       bool   `json:"async,omitempty"`      // 202 + poll /v1/jobs/{key} instead of waiting
}

func (r *Request) k() int {
	if r.K <= 0 {
		return 1
	}
	return r.K
}

func (r *Request) kconst() float64 {
	if r.KConst <= 0 {
		return 3
	}
	return r.KConst
}

func (r *Request) seed() uint64 {
	if r.Seed == 0 {
		return 1
	}
	return r.Seed
}

func (r *Request) tries() int {
	if r.Tries <= 0 {
		return 30
	}
	return r.Tries
}

func (r *Request) budget(fallback int) int {
	if r.Budget <= 0 {
		return fallback
	}
	return r.Budget
}

// spec is the solver.Spec the request resolves to: the algorithm itself, or
// — when Refine is set — the refiner with the algorithm as its base. The
// domination tolerance is not spec material: it lives on the typed instance
// (schedulePass.instance).
func (r *Request) spec() solver.Spec {
	s := solver.Spec{Name: r.Algorithm, KConst: r.kconst()}
	if r.Refine != "" {
		s.Name = r.Refine
		s.Base = r.Algorithm
	}
	return s
}

func timeoutFromMS(ms int, fallback time.Duration) time.Duration {
	if ms <= 0 {
		return fallback
	}
	return time.Duration(ms) * time.Millisecond
}

// isRefiner reports whether name is a registered refinement solver.
func isRefiner(name string) bool {
	for _, n := range solver.RefinerNames() {
		if n == name {
			return true
		}
	}
	return false
}

// ExperimentRequest asks the service to run one registered experiment
// (internal/experiments) with the given configuration. The per-request
// deadline is wired into experiments.Config.Cancel, so a run past its
// deadline stops between trials and surfaces experiments.ErrCanceled.
type ExperimentRequest struct {
	ID        string `json:"id"`
	Seed      uint64 `json:"seed,omitempty"`
	Trials    int    `json:"trials,omitempty"`
	Quick     bool   `json:"quick,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	Async     bool   `json:"async,omitempty"`
}

func (r *ExperimentRequest) resolve() (string, error) {
	id := strings.ToUpper(strings.TrimSpace(r.ID))
	if _, ok := experiments.Get(id); !ok {
		return "", fmt.Errorf("unknown experiment %q (have %v)", r.ID, experiments.IDs())
	}
	if r.Trials < 0 {
		return "", fmt.Errorf("trials = %d must be >= 0", r.Trials)
	}
	if r.TimeoutMS < 0 {
		return "", fmt.Errorf("timeout_ms = %d must be >= 0", r.TimeoutMS)
	}
	return id, nil
}

func (r *ExperimentRequest) key(id string) string {
	quick := 0
	if r.Quick {
		quick = 1
	}
	return graph.NewHasher().
		String("kind", "experiment").
		String("id", id).
		Uint64("seed", r.Seed).
		Int("trials", r.Trials).
		Int("quick", quick).
		Sum()
}

// Result is the cached, immutable outcome of one computation. Schedule
// results carry the schedule in the cmd/ltsched interchange format;
// experiment results carry the rendered table; reconfig results carry the
// transition schedule plus the delta bookkeeping (fingerprints, mapping,
// overlap cost). Per-response metadata (cached, coalesced) lives in the HTTP
// envelope, not here, so one Result can serve many responses: execute
// renders the envelope once into body, which every writer sends.
type Result struct {
	Key        string          `json:"key"`
	Kind       string          `json:"kind"` // "schedule" | "experiment" | "reconfig"
	Algorithm  string          `json:"algorithm,omitempty"`
	Lifetime   int             `json:"lifetime,omitempty"`
	Phases     int             `json:"phases,omitempty"`
	Schedule   json.RawMessage `json:"schedule,omitempty"`
	Experiment string          `json:"experiment,omitempty"`
	Table      string          `json:"table,omitempty"`
	SolveMS    float64         `json:"solve_ms"`

	// Fingerprint is the hex graph fingerprint the schedule was computed
	// for — the address PATCH /v1/schedule/{fingerprint} patches against and
	// the key the cache's invalidation index groups by. Empty on experiment
	// results.
	Fingerprint string `json:"fingerprint,omitempty"`
	// The reconfig fields below are set only on Kind == "reconfig" results.
	// PriorFingerprint is the fingerprint the delta was applied to;
	// Fingerprint above is the post-delta one (chained PATCHes address it).
	PriorFingerprint string `json:"prior_fingerprint,omitempty"`
	Overlap          int    `json:"overlap,omitempty"`        // achieved overlap window, slots
	OverlapEnergy    int    `json:"overlap_energy,omitempty"` // extra slots charged to outgoing nodes
	Degraded         bool   `json:"degraded,omitempty"`       // shorter window or solver fallback
	Violation        bool   `json:"violation,omitempty"`      // domination could not be preserved
	Invalidated      int    `json:"invalidated,omitempty"`    // cache entries dropped for the prior fingerprint
	Mapping          []int  `json:"mapping,omitempty"`        // old→new node IDs, -1 = removed

	// body is the rendered response envelope up to its "cached" member
	// (render). Schedule, Table and Mapping are wire-only, so render drops
	// them once they are in body: an entry keeps its payload once, not twice.
	body []byte

	// ctx carries the solved instance (graph, budgets, schedule) alongside
	// the wire payload so a PATCH against this result's fingerprint can plan
	// a transition without re-parsing anything. Unexported: never serialized,
	// immutable once set.
	ctx *scheduleCtx
	// shardSched is set only on Kind == "shard" entries: one shard's cached
	// schedule under its content-addressed key (see shardCache). These
	// entries carry no Fingerprint on purpose — fingerprint invalidation
	// must never drop them.
	shardSched *core.Schedule
}
