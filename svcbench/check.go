package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// wireResult is the part of a schedule, reconfig or job response the output
// check reads.
type wireResult struct {
	Key      string `json:"key"`
	Kind     string `json:"kind"`
	Lifetime int    `json:"lifetime"`
	Schedule struct {
		Phases []struct {
			Set      []int `json:"set"`
			Duration int   `json:"duration"`
		} `json:"phases"`
	} `json:"schedule"`
	Fingerprint      string `json:"fingerprint"`
	PriorFingerprint string `json:"prior_fingerprint"`
	Violation        bool   `json:"violation"`
	Cached           bool   `json:"cached"`
}

func parseResult(body []byte) (*wireResult, error) {
	var r wireResult
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &r, nil
}

// checkFeasible is the benchmark's own feasibility check, deliberately
// independent of core.Schedule.Validate and domset.Checker: every phase of
// positive duration must k-dominate the graph (each node counts its closed
// neighbourhood's members one by one), node usage must stay within the
// budgets, and the reported lifetime must equal the sum of the durations.
func checkFeasible(r *wireResult, adj func(v int) []int32, n int, budgets []int, k int) error {
	in := make([]bool, n)
	usage := make([]int, n)
	total := 0
	for i, p := range r.Schedule.Phases {
		if p.Duration < 0 {
			return fmt.Errorf("phase %d: negative duration %d", i, p.Duration)
		}
		total += p.Duration
		if p.Duration == 0 {
			continue
		}
		for _, v := range p.Set {
			if v < 0 || v >= n {
				return fmt.Errorf("phase %d: node %d out of range [0, %d)", i, v, n)
			}
			if in[v] {
				return fmt.Errorf("phase %d: node %d listed twice", i, v)
			}
			in[v] = true
			usage[v] += p.Duration
		}
		for v := 0; v < n; v++ {
			seen := 0
			if in[v] {
				seen++
			}
			for _, u := range adj(v) {
				if in[u] {
					seen++
				}
			}
			if seen < k {
				return fmt.Errorf("phase %d: node %d has %d dominators, needs %d", i, v, seen, k)
			}
		}
		for _, v := range p.Set {
			in[v] = false
		}
	}
	for v, u := range usage {
		if u > budgets[v] {
			return fmt.Errorf("node %d active %d slots, budget %d", v, u, budgets[v])
		}
	}
	if total != r.Lifetime {
		return fmt.Errorf("lifetime field %d, phases sum to %d", r.Lifetime, total)
	}
	return nil
}

// usagePrefix is the energy each node spends in the first t slots of r's
// schedule.
func usagePrefix(r *wireResult, n, t int) []int {
	usage := make([]int, n)
	for _, p := range r.Schedule.Phases {
		if t <= 0 {
			break
		}
		d := min(p.Duration, t)
		for _, v := range p.Set {
			usage[v] += d
		}
		t -= p.Duration
	}
	return usage
}

// checkSchedule checks a POST /v1/schedule response against the request
// the benchmark generated.
func checkSchedule(status int32, body []byte, req *schedReq, wantCached bool) (*wireResult, error) {
	if status != 200 {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	r, err := parseResult(body)
	if err != nil {
		return nil, err
	}
	if r.Kind != "schedule" {
		return nil, fmt.Errorf("kind %q, want schedule", r.Kind)
	}
	if r.Cached != wantCached {
		return nil, fmt.Errorf("cached = %v, want %v", r.Cached, wantCached)
	}
	adj := req.g.adjacency()
	if err := checkFeasible(r, func(v int) []int32 { return adj[v] }, req.g.n, req.budgets(), req.tolerance()); err != nil {
		return nil, err
	}
	return r, nil
}

// stableBody masks the one field of a response that is a measurement, not a
// function of the request: the server's solve time.
func stableBody(body []byte) []byte {
	const field = `"solve_ms": `
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return body
	}
	j := i + len(field)
	for j < len(body) && (body[j] == '.' || body[j] == '-' || body[j] == 'e' || body[j] == '+' || (body[j] >= '0' && body[j] <= '9')) {
		j++
	}
	out := append([]byte(nil), body[:i+len(field)]...)
	return append(out, body[j:]...)
}
