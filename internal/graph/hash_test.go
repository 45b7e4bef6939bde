package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomEdgeList draws a simple random edge list over n nodes.
func randomEdgeList(n int, p float64, r *rand.Rand) [][2]int {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return edges
}

// TestFingerprintStableAcrossEdgeOrderings is the property test of the
// canonical hash contract: the same edge list, presented in any order, with
// either endpoint orientation, built through either construction path, must
// fingerprint identically. (Isomorphism-insensitivity — relabeled node IDs —
// is explicitly out of scope.)
func TestFingerprintStableAcrossEdgeOrderings(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(40)
		edges := randomEdgeList(n, 0.2, r)
		want := NewFromEdges(n, edges).Fingerprint()

		for rep := 0; rep < 5; rep++ {
			shuffled := append([][2]int(nil), edges...)
			r.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			// Randomly flip endpoint orientation: {u,v} and {v,u} are the
			// same undirected edge.
			for i := range shuffled {
				if r.Intn(2) == 0 {
					shuffled[i][0], shuffled[i][1] = shuffled[i][1], shuffled[i][0]
				}
			}
			if got := NewFromEdges(n, shuffled).Fingerprint(); got != want {
				t.Fatalf("trial %d rep %d: fingerprint changed under edge reordering", trial, rep)
			}
			// AddEdge insertion path in shuffled order.
			g := New(n)
			for _, e := range shuffled {
				g.AddEdge(e[0], e[1])
			}
			if got := g.Fingerprint(); got != want {
				t.Fatalf("trial %d rep %d: fingerprint differs across construction paths", trial, rep)
			}
		}
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	base := NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	cases := map[string]*Graph{
		"extra node":     NewFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		"missing edge":   NewFromEdges(4, [][2]int{{0, 1}, {1, 2}}),
		"different edge": NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {1, 3}}),
		"empty":          New(4),
	}
	want := base.Fingerprint()
	for name, g := range cases {
		if g.Fingerprint() == want {
			t.Errorf("%s: fingerprint collides with base graph", name)
		}
	}
}

// TestHasherKeyComponents pins that every request-key component —
// budgets, algorithm, parameters, seed — perturbs the sum, and that equal
// inputs agree.
func TestHasherKeyComponents(t *testing.T) {
	g := NewFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	key := func(g *Graph, budgets []int, alg string, k int, kc float64, seed uint64) string {
		return NewHasher().
			Graph("graph", g).
			Ints("budgets", budgets).
			String("alg", alg).
			Int("k", k).
			Float("kconst", kc).
			Uint64("seed", seed).
			Sum()
	}
	base := key(g, []int{3, 3, 3, 3, 3}, "uniform", 1, 3, 7)
	if again := key(g.Clone(), []int{3, 3, 3, 3, 3}, "uniform", 1, 3, 7); again != base {
		t.Fatal("identical requests produced different keys")
	}
	variants := map[string]string{
		"budgets": key(g, []int{3, 3, 3, 3, 4}, "uniform", 1, 3, 7),
		"alg":     key(g, []int{3, 3, 3, 3, 3}, "general", 1, 3, 7),
		"k":       key(g, []int{3, 3, 3, 3, 3}, "uniform", 2, 3, 7),
		"kconst":  key(g, []int{3, 3, 3, 3, 3}, "uniform", 1, 2.5, 7),
		"seed":    key(g, []int{3, 3, 3, 3, 3}, "uniform", 1, 3, 8),
		"graph":   key(NewFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}), []int{3, 3, 3, 3, 3}, "uniform", 1, 3, 7),
	}
	seen := map[string]string{base: "base"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestHasherFraming pins the anti-concatenation property: moving bytes
// between adjacent fields must change the sum.
func TestHasherFraming(t *testing.T) {
	a := NewHasher().String("x", "ab").String("y", "c").Sum()
	b := NewHasher().String("x", "a").String("y", "bc").Sum()
	if a == b {
		t.Fatal("field framing does not prevent concatenation collisions")
	}
	if NewHasher().Ints("v", nil).Sum() == NewHasher().Sum() {
		t.Fatal("absent field indistinguishable from empty slice")
	}
}

// TestHashByteFormatPinned pins Fingerprint and Hasher sums to digests of
// the byte format as first written, so no change to how the bytes reach the
// digest can silently re-key cached results.
func TestHashByteFormatPinned(t *testing.T) {
	g := NewFromEdges(5, [][2]int{{0, 1}, {3, 1}, {2, 4}, {0, 4}})
	if got := fmt.Sprintf("%x", g.Fingerprint()); got != "bed544cadd29255ebfea2d609bbf6a927f6543d9cd7060f1915a786069187ad7" {
		t.Errorf("fingerprint %s", got)
	}
	key := NewHasher().String("kind", "schedule").Graph("graph", g).
		Ints("budgets", []int{3, 1, 4, 1, 5}).Float("kconst", 3).Uint64("seed", 1<<63).
		Int("k", -2).String("long", string(make([]byte, 700))).Sum()
	if key != "edcc5b1486cad00dc3b1ba4f90de756949052f31027d03387261f60ba08c1994" {
		t.Errorf("key %s", key)
	}
}

// TestSortedPairsMatchEdges pins the two paths the service takes from an
// edge list: NewFromSortedPairs builds the graph NewFromEdges builds, and
// Hasher.EdgePairs hashes what Hasher.Graph hashes for it.
func TestSortedPairsMatchEdges(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(60)
		edges := randomEdgeList(n, r.Float64()*0.3, r)
		pairs := make([]uint64, len(edges))
		for i, e := range edges {
			if r.Intn(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
			pairs[i] = PackEdge(e[0], e[1])
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
		want := NewFromEdges(n, edges)
		got := NewFromSortedPairs(n, pairs)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.M() != want.M() || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("trial %d: graphs differ", trial)
		}
		for v := 0; v < n; v++ {
			if !reflect.DeepEqual(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("trial %d: N(%d) = %v, want %v", trial, v, got.Neighbors(v), want.Neighbors(v))
			}
		}
		if NewHasher().EdgePairs("g", n, pairs).Sum() != NewHasher().Graph("g", want).Sum() {
			t.Fatalf("trial %d: EdgePairs and Graph hash differently", trial)
		}
	}
	// Lists share one backing array; growing one must not clobber the next.
	g := NewFromSortedPairs(4, []uint64{PackEdge(0, 1), PackEdge(1, 2), PackEdge(2, 3)})
	g.AddEdge(0, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]uint64{
		{PackEdge(1, 1)},
		{PackEdge(0, 2), PackEdge(0, 1)},
		{PackEdge(0, 1), PackEdge(0, 1)},
		{PackEdge(0, 4)},
		{uint64(2)<<32 | 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pairs %v accepted", bad)
				}
			}()
			NewFromSortedPairs(4, bad)
		}()
	}
}
