package partition

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Multilevel is a METIS-style multilevel k-way partitioner:
//
//  1. Coarsen the (symmetrized) graph with heavy-edge matching until it is
//     small, accumulating vertex and edge weights.
//  2. Compute an initial k-way partition on the coarsest graph by greedy
//     region growing from spread seeds.
//  3. Project the partition back level by level, running boundary
//     refinement (greedy gain moves under a balance constraint) after each
//     projection.
//
// It is not METIS — no FM bucket queues, no recursive bisection — but it
// is the same algorithm family and, on community-structured graphs,
// produces the qualitative behaviour Figure 6 relies on: edge cuts far
// below hash partitioning at equal balance.
type Multilevel struct {
	// Seed drives matching tie-breaks. The default 0 is a valid seed.
	Seed uint64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices (floored at 8*k). Default 4096: gentler coarsening costs a
	// little initial-partition time but measurably lowers cuts (heavy-edge
	// matching destroys less community structure per level).
	CoarsenTo int
}

const (
	// refinePasses bounds boundary-refinement sweeps per level: 8.
	refinePasses = 8
	// balanceTol is the allowed max-part/mean-part vertex-weight ratio
	// during refinement: 1.10.
	balanceTol = 1.10
)

// Name implements Partitioner.
func (m Multilevel) Name() string { return "multilevel" }

func (m Multilevel) withDefaults() Multilevel {
	if m.CoarsenTo == 0 {
		m.CoarsenTo = 4096
	}
	return m
}

// level is an undirected weighted graph in CSR form used during the
// multilevel hierarchy. adj holds neighbor ids, ewt the edge weights
// (parallel to adj), vwt the vertex weights.
type level struct {
	n    int
	xadj []int64
	adj  []int32
	ewt  []int64
	vwt  []int64
	// cmap maps this level's vertices to the coarser level's vertices
	// (set when the coarser level is built).
	cmap []int32
}

// Partition implements Partitioner.
func (m Multilevel) Partition(g *graph.Graph, k int) (*Assignment, error) {
	m = m.withDefaults()
	if err := checkEdges(g, k, "multilevel"); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n == 0 {
		return &Assignment{Parts: []int32{}, K: k}, nil
	}
	if k == 1 {
		return &Assignment{Parts: make([]int32, n), K: 1}, nil
	}

	levels := []*level{symmetrize(g)}
	stopAt := m.CoarsenTo
	if floor := 8 * k; stopAt < floor {
		stopAt = floor
	}
	for {
		cur := levels[len(levels)-1]
		if cur.n <= stopAt {
			break
		}
		next := coarsen(cur, m.Seed+uint64(len(levels)))
		// Stop when matching stalls (< 10% reduction): further levels
		// would add cost without shrinking the problem.
		if float64(next.n) > 0.9*float64(cur.n) {
			break
		}
		levels = append(levels, next)
	}

	// Initial partitioning is cheap at the coarsest level, so try several
	// seed placements and keep the best cut after refinement.
	coarsest := levels[len(levels)-1]
	var parts []int32
	bestCut := int64(-1)
	for attempt := uint64(0); attempt < 4; attempt++ {
		cand := initialPartition(coarsest, k, m.Seed+attempt*0x9e3779b9)
		rebalance(coarsest, cand, k, balanceTol)
		refine(coarsest, cand, k, refinePasses, balanceTol)
		if cut := levelCut(coarsest, cand); bestCut < 0 || cut < bestCut {
			bestCut, parts = cut, cand
		}
	}

	for i := len(levels) - 2; i >= 0; i-- {
		fine := levels[i]
		fineParts := make([]int32, fine.n)
		for v := 0; v < fine.n; v++ {
			fineParts[v] = parts[fine.cmap[v]]
		}
		parts = fineParts
		rebalance(fine, parts, k, balanceTol)
		refine(fine, parts, k, refinePasses, balanceTol)
	}

	a := &Assignment{Parts: parts, K: k}
	if err := a.Validate(g); err != nil {
		return nil, fmt.Errorf("partition: multilevel produced invalid assignment: %w", err)
	}
	return a, nil
}

// symmetrize builds the undirected weighted level-0 graph: edge (u,v) and
// (v,u) in the digraph both contribute weight 1 to the undirected edge
// {u,v}; self loops are dropped (they never affect cuts).
//
// Two counting passes replace a sort of the 2E half-edges: the first
// buckets every vertex's undirected neighbours in CSR order, the second
// transposes those buckets in ascending vertex order, which leaves each
// list sorted (the multiset is symmetric, so the same lists come back).
// Equal neighbours are then adjacent and fold into one weighted edge.
// It never calls g.Transpose, which would cache a transpose on the
// caller's graph.
func symmetrize(g *graph.Graph) *level {
	n := g.NumVertices()
	off, dst := g.Offsets(), g.Edges()
	start := make([]int64, n+1)
	for s := 0; s < n; s++ {
		for _, d := range dst[off[s]:off[s+1]] {
			if int(d) != s {
				start[s+1]++
				start[d+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	next := make([]int64, n)
	copy(next, start[:n])
	unsorted := make([]int32, start[n])
	for s := 0; s < n; s++ {
		for _, d := range dst[off[s]:off[s+1]] {
			if int(d) != s {
				unsorted[next[s]], next[s] = int32(d), next[s]+1
				unsorted[next[d]], next[d] = int32(s), next[d]+1
			}
		}
	}
	copy(next, start[:n])
	sorted := make([]int32, start[n])
	for u := 0; u < n; u++ {
		for _, v := range unsorted[start[u]:start[u+1]] {
			sorted[next[v]], next[v] = int32(u), next[v]+1
		}
	}

	lv := &level{n: n, xadj: make([]int64, n+1), vwt: make([]int64, n),
		adj: sorted[:0], ewt: make([]int64, 0, len(sorted))}
	for i := range lv.vwt {
		lv.vwt[i] = 1
	}
	for u := 0; u < n; u++ {
		for i, hi := start[u], start[u+1]; i < hi; {
			j := i + 1
			for j < hi && sorted[j] == sorted[i] {
				j++
			}
			// In place: the write index never passes the read index.
			lv.adj = append(lv.adj, sorted[i])
			lv.ewt = append(lv.ewt, j-i)
			i = j
		}
		lv.xadj[u+1] = int64(len(lv.adj))
	}
	return lv
}

// coarsen contracts a heavy-edge matching of lv into a coarser level and
// records lv.cmap.
func coarsen(lv *level, seed uint64) *level {
	n := lv.n
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	// Visit order: pseudo-random permutation from a multiplicative hash to
	// avoid pathological id-order matchings. The hash is a bijection of
	// the id, so the keys are distinct and any sort gives one order.
	type keyed struct {
		h uint64
		v int32
	}
	order := make([]keyed, n)
	for i := range order {
		order[i] = keyed{(uint64(i) + seed) * 0x9e3779b97f4a7c15, int32(i)}
	}
	slices.SortFunc(order, func(a, b keyed) int { return cmp.Compare(a.h, b.h) })
	for _, o := range order {
		v := o.v
		if match[v] >= 0 {
			continue
		}
		bestW := int64(-1)
		best := int32(-1)
		for i := lv.xadj[v]; i < lv.xadj[v+1]; i++ {
			u := lv.adj[i]
			if u == v || match[u] >= 0 {
				continue
			}
			if lv.ewt[i] > bestW {
				bestW, best = lv.ewt[i], u
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
		} else {
			match[v] = v // matched with itself
		}
	}
	// Assign coarse ids in order of each pair's smaller member.
	cmap := make([]int32, n)
	cn := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if m := match[v]; m >= v {
			cmap[v], cmap[m] = cn, cn
			cn++
		}
	}
	lv.cmap = cmap

	// Build the coarse graph in two passes, as symmetrize does. The first
	// visits the coarse vertices in id order, sums each one's (at most two)
	// members' edges into a dense accumulator and writes its coarse
	// neighbours in first-touch order. The second transposes those lists in
	// ascending coarse id: the coarse graph is symmetric, so every list comes
	// back sorted with the same weights. Integer sums do not depend on the
	// order they are taken in.
	coarse := &level{n: int(cn), xadj: make([]int64, cn+1), vwt: make([]int64, cn)}
	unsorted := make([]int32, 0, len(lv.adj)) // a coarse edge needs a fine one
	uwt := make([]int64, 0, len(lv.adj))
	acc := make([]int64, cn) // edge weights are positive: 0 means untouched
	for v := int32(0); v < int32(n); v++ {
		m := match[v]
		if m < v {
			continue // v is the second member of an earlier coarse vertex
		}
		cu := cmap[v]
		members, nm := [2]int32{v, m}, 2
		if m == v {
			nm = 1
		}
		first := len(unsorted)
		for _, f := range members[:nm] {
			coarse.vwt[cu] += lv.vwt[f]
			for i := lv.xadj[f]; i < lv.xadj[f+1]; i++ {
				cv := cmap[lv.adj[i]]
				if cv == cu {
					continue
				}
				if acc[cv] == 0 {
					unsorted = append(unsorted, cv)
				}
				acc[cv] += lv.ewt[i]
			}
		}
		for _, cv := range unsorted[first:] {
			uwt = append(uwt, acc[cv])
			acc[cv] = 0
		}
		coarse.xadj[cu+1] = int64(len(unsorted))
	}
	next := make([]int64, cn)
	copy(next, coarse.xadj[:cn])
	coarse.adj, coarse.ewt = make([]int32, len(unsorted)), make([]int64, len(unsorted))
	for cu := int32(0); cu < cn; cu++ {
		for i := coarse.xadj[cu]; i < coarse.xadj[cu+1]; i++ {
			cv := unsorted[i]
			coarse.adj[next[cv]], coarse.ewt[next[cv]] = cu, uwt[i]
			next[cv]++
		}
	}
	return coarse
}

// initialPartition grows k regions on the coarsest graph by repeated BFS
// from spread seeds, always extending the lightest part.
func initialPartition(lv *level, k int, seed uint64) []int32 {
	parts := make([]int32, lv.n)
	for i := range parts {
		parts[i] = -1
	}
	weights := make([]int64, k)
	queues := make([][]int32, k)
	// Seeds: spread across the id space with a hashed offset.
	used := make(map[int32]bool, k)
	for p := 0; p < k; p++ {
		s := int32((uint64(p)*uint64(lv.n)/uint64(k) + seed) % uint64(lv.n))
		for used[s] {
			s = (s + 1) % int32(lv.n)
		}
		used[s] = true
		parts[s] = int32(p)
		weights[p] += lv.vwt[s]
		queues[p] = append(queues[p], s)
	}
	assigned := k
	sweep := int32(0) // every vertex below sweep is assigned, and stays so
	for assigned < lv.n {
		// Pick the lightest part with a non-empty frontier.
		best := -1
		for p := 0; p < k; p++ {
			if len(queues[p]) == 0 {
				continue
			}
			if best < 0 || weights[p] < weights[best] {
				best = p
			}
		}
		if best < 0 {
			// Frontiers exhausted (disconnected graph): sweep remaining
			// vertices into the lightest part, re-seeding its frontier.
			light := 0
			for p := 1; p < k; p++ {
				if weights[p] < weights[light] {
					light = p
				}
			}
			for parts[sweep] >= 0 {
				sweep++
			}
			parts[sweep] = int32(light)
			weights[light] += lv.vwt[sweep]
			queues[light] = append(queues[light], sweep)
			assigned++
			continue
		}
		q := queues[best]
		v := q[0]
		queues[best] = q[1:]
		for i := lv.xadj[v]; i < lv.xadj[v+1]; i++ {
			u := lv.adj[i]
			if parts[u] < 0 {
				parts[u] = int32(best)
				weights[best] += lv.vwt[u]
				queues[best] = append(queues[best], u)
				assigned++
			}
		}
	}
	return parts
}

// bounds returns the lower and upper per-part weight bounds for a total
// weight and balance tolerance. The lower bound prevents refinement from
// draining parts empty; the upper bound caps overload.
func bounds(total int64, k int, tol float64) (minW, maxW int64) {
	mean := float64(total) / float64(k)
	maxW = int64(tol * mean)
	if maxW < 1 {
		maxW = 1
	}
	minW = int64(mean / (2 * tol))
	return minW, maxW
}

// refine performs greedy boundary refinement: each pass scans vertices,
// computes the connectivity gain of moving to the best adjacent part, and
// applies the move if it strictly reduces the cut while keeping part
// weights within [minW, maxW]. Stops early when a pass makes no moves.
//
// A pass looks only at stale vertices. Every vertex starts stale. One
// looked at stays stale if some adjacent part offered a positive gain
// (then maxW decided the outcome, and a later move may free room) or if
// the underfill check skipped it; a move makes the mover and its
// neighbours stale. A clean vertex's gains are all ≤ 0 and depend only on
// its neighbours' parts, so until a neighbour moves it cannot move
// whatever the weights do: skipping it is exact.
func refine(lv *level, parts []int32, k int, passes int, tol float64) {
	weights := make([]int64, k)
	var total int64
	for v := 0; v < lv.n; v++ {
		weights[parts[v]] += lv.vwt[v]
		total += lv.vwt[v]
	}
	minW, maxW := bounds(total, k, tol)
	conn := make([]int64, k) // reused per-vertex connectivity scratch
	touched := make([]int32, 0, 8)
	stale := make([]bool, lv.n)
	for v := range stale {
		stale[v] = true
	}
	for pass := 0; pass < passes; pass++ {
		moves := 0
		for v := int32(0); v < int32(lv.n); v++ {
			if !stale[v] {
				continue
			}
			home := parts[v]
			if weights[home]-lv.vwt[v] < minW {
				continue // moving v would underfill its part
			}
			// Connectivity to each adjacent part.
			touched = touched[:0]
			for i := lv.xadj[v]; i < lv.xadj[v+1]; i++ {
				p := parts[lv.adj[i]]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += lv.ewt[i]
			}
			bestGain := int64(0)
			best := home
			positive := false
			for _, p := range touched {
				if p == home {
					continue
				}
				gain := conn[p] - conn[home]
				positive = positive || gain > 0
				if gain > bestGain && weights[p]+lv.vwt[v] <= maxW {
					bestGain, best = gain, p
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			stale[v] = positive
			if best != home {
				parts[v] = best
				weights[home] -= lv.vwt[v]
				weights[best] += lv.vwt[v]
				moves++
				for _, u := range lv.adj[lv.xadj[v]:lv.xadj[v+1]] {
					stale[u] = true
				}
			}
		}
		if moves == 0 {
			break
		}
	}
}

// levelCut returns the weighted edge cut of a partition of lv.
func levelCut(lv *level, parts []int32) int64 {
	var cut int64
	for v := int32(0); v < int32(lv.n); v++ {
		for i := lv.xadj[v]; i < lv.xadj[v+1]; i++ {
			if parts[lv.adj[i]] != parts[v] {
				cut += lv.ewt[i]
			}
		}
	}
	return cut
}

// rebalance enforces the weight bounds by explicit moves: while some part
// exceeds maxW (or sits below minW), move one vertex from the heaviest
// part (the first maximum) to the lightest (the first minimum): the one
// whose move damages the cut least, conn(heavy) − conn(light), the
// smallest id on ties. Cut quality is secondary here — refine restores it
// afterwards.
//
// A move costs the heavy part's size and the mover's degree, not the
// light part's adjacency. Each member of the heavy part keeps a row of its
// edge weight into every part; only the mover's neighbours in the heavy
// part change theirs. The rows are built on the first move and again only
// when another part becomes the heaviest; the light part may change on
// every move at no cost. They hold |heavy|·k weights: about n(1+ε) near
// balance, n·k when one part holds every vertex.
func rebalance(lv *level, parts []int32, k int, tol float64) {
	weights := make([]int64, k)
	var total int64
	for v := 0; v < lv.n; v++ {
		weights[parts[v]] += lv.vwt[v]
		total += lv.vwt[v]
	}
	minW, maxW := bounds(total, k, tol)
	var members [][]int32 // each part's vertices, in no particular order; built on the first move
	var pos []int32       // pos[v] is v's index in members[parts[v]]
	var rows []int64      // rows[pos[v]*k+p] is heavy member v's edge weight into part p
	rowsOf := int32(-1)   // the part rows describe
	// Each iteration moves one vertex; bound iterations to avoid livelock
	// on lumpy coarse weights where perfect balance is unattainable.
	for iter := 0; iter < 4*lv.n+16; iter++ {
		heavy, light := int32(0), int32(0)
		for p := int32(1); p < int32(k); p++ {
			if weights[p] > weights[heavy] {
				heavy = p
			}
			if weights[p] < weights[light] {
				light = p
			}
		}
		if weights[heavy] <= maxW && weights[light] >= minW {
			return
		}
		if heavy == light {
			return // all parts equal: every remaining move would be a no-op
		}
		if members == nil {
			pos, members = make([]int32, lv.n), make([][]int32, k)
			for v := int32(0); v < int32(lv.n); v++ {
				pos[v] = int32(len(members[parts[v]]))
				members[parts[v]] = append(members[parts[v]], v)
			}
		}
		hm := members[heavy]
		if len(hm) == 0 {
			return // heavy part has no vertices (k > n at this level)
		}
		if heavy != rowsOf {
			rowsOf = heavy
			rows = slices.Grow(rows[:0], len(hm)*k)[:len(hm)*k]
			clear(rows)
			for j, u := range hm {
				row := rows[j*k : (j+1)*k]
				for i := lv.xadj[u]; i < lv.xadj[u+1]; i++ {
					row[parts[lv.adj[i]]] += lv.ewt[i]
				}
			}
		}
		best, bestScore := hm[0], rows[heavy]-rows[light]
		for j, u := range hm {
			row := rows[j*k : (j+1)*k]
			if score := row[heavy] - row[light]; score < bestScore || score == bestScore && u < best {
				best, bestScore = u, score
			}
		}

		// Move best to light: only its neighbours in heavy change rows.
		v := best
		for i := lv.xadj[v]; i < lv.xadj[v+1]; i++ {
			if u := lv.adj[i]; parts[u] == heavy {
				row := rows[int(pos[u])*k : int(pos[u]+1)*k]
				row[heavy] -= lv.ewt[i]
				row[light] += lv.ewt[i]
			}
		}
		j, last := int(pos[v]), len(hm)-1
		copy(rows[j*k:(j+1)*k], rows[last*k:])
		rows = rows[:last*k]
		hm[j], pos[hm[last]] = hm[last], int32(j)
		members[heavy] = hm[:last]
		pos[v] = int32(len(members[light]))
		members[light] = append(members[light], v)
		weights[heavy] -= lv.vwt[v]
		weights[light] += lv.vwt[v]
		parts[v] = light
	}
}
