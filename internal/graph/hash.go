package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Fingerprint returns the canonical SHA-256 hash of the graph structure: the
// node count, edge count, and the sorted undirected edge list. Because the
// adjacency lists are kept sorted, two graphs over the same node set with the
// same edge set fingerprint identically no matter the order edges were
// inserted or listed, and distinct structures differ (up to SHA-256
// collisions). Node IDs are part of the structure: isomorphic graphs with
// different labelings fingerprint differently by design — the serving layer
// caches by concrete instance, not by isomorphism class.
func (g *Graph) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	hashGraph(h, g)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func hashGraph(h hash.Hash, g *Graph) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	put(uint64(g.M()))
	g.Edges(func(u, v int) {
		put(uint64(u))
		put(uint64(v))
	})
}

// Hasher accumulates a canonical request key: a graph structure plus labeled
// scalar and slice parameters (budgets, algorithm name, tolerance, seed, …).
// Every field is framed with its label and a length prefix, so adjacent
// fields cannot collide by concatenation ("ab"+"c" vs "a"+"bc") and a nil
// slice is distinct from an empty one is distinct from an absent one. The
// serving layer (internal/serve) keys its result cache and request
// coalescing on Hasher sums.
type Hasher struct {
	h   hash.Hash
	buf [8]byte
}

// NewHasher returns an empty Hasher.
func NewHasher() *Hasher {
	return &Hasher{h: sha256.New()}
}

func (s *Hasher) frame(label string, kind byte, payloadLen int) {
	s.putUint(uint64(len(label)))
	s.h.Write([]byte(label))
	s.h.Write([]byte{kind})
	s.putUint(uint64(payloadLen))
}

func (s *Hasher) putUint(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.h.Write(s.buf[:])
}

// Graph mixes in the canonical structure hash of g under the given label.
func (s *Hasher) Graph(label string, g *Graph) *Hasher {
	s.frame(label, 'g', g.N())
	hashGraph(s.h, g)
	return s
}

// EdgePairs mixes in, under the given label, the graph with n nodes and the
// given edges, packed by PackEdge and sorted ascending without duplicates.
// It writes the same bytes as Graph does for the graph those pairs build
// (NewFromSortedPairs), without building it.
func (s *Hasher) EdgePairs(label string, n int, pairs []uint64) *Hasher {
	s.frame(label, 'g', n)
	s.putUint(uint64(n))
	s.putUint(uint64(len(pairs)))
	for _, p := range pairs {
		s.putUint(p >> 32)
		s.putUint(uint64(uint32(p)))
	}
	return s
}

// String mixes in a labeled string.
func (s *Hasher) String(label, v string) *Hasher {
	s.frame(label, 's', len(v))
	s.h.Write([]byte(v))
	return s
}

// Int mixes in a labeled int.
func (s *Hasher) Int(label string, v int) *Hasher {
	s.frame(label, 'i', 1)
	s.putUint(uint64(v))
	return s
}

// Uint64 mixes in a labeled uint64 (seeds).
func (s *Hasher) Uint64(label string, v uint64) *Hasher {
	s.frame(label, 'u', 1)
	s.putUint(v)
	return s
}

// Float mixes in a labeled float64 by its IEEE-754 bits, so every distinct
// value (including -0 vs +0 and NaN payloads) is a distinct key component.
func (s *Hasher) Float(label string, v float64) *Hasher {
	s.frame(label, 'f', 1)
	s.putUint(math.Float64bits(v))
	return s
}

// Ints mixes in a labeled int slice in order, length-prefixed.
func (s *Hasher) Ints(label string, vs []int) *Hasher {
	s.frame(label, 'I', len(vs))
	for _, v := range vs {
		s.putUint(uint64(v))
	}
	return s
}

// Sum returns the accumulated key as a hex string. The Hasher must not be
// used after Sum.
func (s *Hasher) Sum() string {
	return hex.EncodeToString(s.h.Sum(nil))
}
