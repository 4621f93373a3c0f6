package spantree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// referenceEnumerate is the enumerator with its original connectivity
// check: at every exclude decision it rebuilds a probe union-find from all
// chosen and all remaining edges. It is kept as the oracle for the
// suffix-component check of Enumerator.Enumerate and follows the same
// prefix, hook and visit contract.
func referenceEnumerate(g *Graph, prefix []bool, h *Hooks, visit func(edges []int) bool) int {
	if g.N <= 1 {
		for _, inc := range prefix {
			if inc {
				return 0
			}
		}
		if visit == nil || visit(nil) {
			return 1
		}
		return 0
	}
	need := g.N - 1
	if len(g.Edges) < need {
		return 0
	}
	uf, probe := newUnionFind(g.N), newUnionFind(g.N)
	var chosen []int
	count := 0
	stopped := false
	canConnect := func(idx int) bool {
		probe.reset()
		comps := g.N
		for _, e := range chosen {
			if probe.union(g.Edges[e].U, g.Edges[e].V) {
				comps--
			}
		}
		for i := idx; i < len(g.Edges) && comps > 1; i++ {
			if probe.union(g.Edges[i].U, g.Edges[i].V) {
				comps--
			}
		}
		return comps == 1
	}
	var rec func(idx int)
	rec = func(idx int) {
		if stopped {
			return
		}
		if len(chosen) == need {
			count++
			if visit != nil && !visit(chosen) {
				stopped = true
			}
			return
		}
		if len(g.Edges)-idx < need-len(chosen) {
			return
		}
		e := g.Edges[idx]
		forced := idx < len(prefix)
		if !forced || prefix[idx] {
			if uf.union(e.U, e.V) {
				if h == nil || h.Include == nil || h.Include(idx) {
					chosen = append(chosen, idx)
					rec(idx + 1)
					chosen = chosen[:len(chosen)-1]
					if h != nil && h.Undo != nil {
						h.Undo(idx)
					}
				}
				uf.undo()
			}
		}
		if (!forced || !prefix[idx]) && canConnect(idx+1) {
			rec(idx + 1)
		}
	}
	rec(0)
	return count
}

// randomMultigraph draws a graph on 2..7 vertices with parallel edges
// allowed and no guarantee of connectivity.
func randomMultigraph(rng *rand.Rand) *Graph {
	g := NewGraph(2 + rng.Intn(6))
	m := rng.Intn(3 * g.N)
	for len(g.Edges) < m {
		u, v := rng.Intn(g.N), rng.Intn(g.N)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// recordEnumeration runs enumerate with an Include hook that vetoes at
// random (from a fixed seed) and returns the log of hook calls and visited
// edge sets, in order, plus the tree count.
func recordEnumeration(seed int64, enumerate func(h *Hooks, visit func([]int) bool) int) ([]string, int) {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	h := &Hooks{
		Include: func(ei int) bool {
			ok := rng.Intn(4) != 0
			log = append(log, fmt.Sprintf("include %d %v", ei, ok))
			return ok
		},
		Undo: func(ei int) { log = append(log, fmt.Sprintf("undo %d", ei)) },
	}
	n := enumerate(h, func(edges []int) bool {
		log = append(log, fmt.Sprintf("visit %v", edges))
		return true
	})
	return log, n
}

// TestEnumeratorMatchesReferenceProbe checks the suffix-component
// connectivity check against the full-rebuild reference on random
// multigraphs, for every partition prefix of up to 4 bits, with random
// Include vetoes: the visited trees and every hook call must match in order.
func TestEnumeratorMatchesReferenceProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(20240601))
	for trial := 0; trial < 300; trial++ {
		g := randomMultigraph(rng)
		en := NewEnumerator(g)
		for bits := 0; bits <= 4 && bits <= len(g.Edges); bits++ {
			for _, prefix := range PartitionPrefixes(len(g.Edges), bits) {
				seed := rng.Int63()
				want, wantN := recordEnumeration(seed, func(h *Hooks, visit func([]int) bool) int {
					return referenceEnumerate(g, prefix, h, visit)
				})
				got, gotN := recordEnumeration(seed, func(h *Hooks, visit func([]int) bool) int {
					return en.Enumerate(prefix, h, visit)
				})
				if gotN != wantN || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, %d vertices, edges %v, prefix %v: %d trees, want %d\ngot  %v\nwant %v",
						trial, g.N, g.Edges, prefix, gotN, wantN, got, want)
				}
			}
		}
	}
}
