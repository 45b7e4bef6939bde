package main

import (
	"testing"
	"time"
)

// tinySizes shrink every workload so a run takes well under a second.
var tinySizes = sizes{
	hotN: []int{32, 64}, hotVariants: 1, hotTries: 4,
	coldN: 64, coldRefineN: 48, coldShardN: 96, gridSide: 10,
	coldTemplates: 2, coldTries: 4, coldBudget: 500, coldWarm: 7, coldRatioK: 14,
	churnN: 64, churnLineages: 2, churnSteps: 400, churnWarm: 2, churnRatioK: 6,
}

func tinyRun(t *testing.T, name string, seed uint64, trace bool) *report {
	t.Helper()
	cfg := config{
		workload: name, seed: seed, window: 300 * time.Millisecond, trace: trace,
		outDir: t.TempDir(), sz: tinySizes, setups: 1,
	}
	res, rep, err := run(cfg, time.Now())
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !res.Correct {
		t.Fatalf("%s seed %d trace %v: not correct: %v", name, seed, trace, rep.Errors)
	}
	return rep
}

// TestDeterminism pins that a workload's outputs are a function of its
// seed: two runs with one seed agree on lifetime_ratio, success_ratio and
// the digest of the sampled response bodies (solve time masked), a traced
// run agrees with them too, and another seed generates other inputs.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"hot-repeat", "cold-solve", "churn"} {
		t.Run(name, func(t *testing.T) {
			a := tinyRun(t, name, 7, false)
			b := tinyRun(t, name, 7, false)
			traced := tinyRun(t, name, 7, true)
			for _, r := range []*report{b, traced} {
				for _, m := range []string{"lifetime_ratio", "success_ratio"} {
					if r.Values[m] != a.Values[m] {
						t.Errorf("%s: %v, first run %v", m, r.Values[m], a.Values[m])
					}
				}
				if r.OutputDigest != a.OutputDigest {
					t.Errorf("response digest %s, first run %s", r.OutputDigest, a.OutputDigest)
				}
				if r.InputDigest != a.InputDigest {
					t.Errorf("input digest %s, first run %s", r.InputDigest, a.InputDigest)
				}
			}
			if other := tinyRun(t, name, 8, false); other.InputDigest == a.InputDigest {
				t.Errorf("seeds 7 and 8 generated the same inputs")
			}
		})
	}
}
