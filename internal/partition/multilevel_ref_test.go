package partition

// The parent commit's Multilevel.Partition, symmetrize, coarsen and
// rebalance, copied verbatim apart from their names: the reference the
// sort-free, scan-free phases in multilevel.go must match bit for bit
// (FuzzMultilevelMatchesReference). Partition itself is unchanged; its
// copy exists only to thread the reference phases through. Do not edit.
//
// refInitialPartition and refRefine were added later, the same way: the
// later parent's initialPartition and refine verbatim apart from their
// names, the reference for the cursor-resumed leftover sweep and the
// stale-set refinement. refPartition calls them in place of the
// package's own phases; nothing else in the copies above changed.

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// refPartition is the parent's Multilevel.Partition, driving the
// reference phases below.
func refPartition(m Multilevel, g *graph.Graph, k int) (*Assignment, error) {
	m = m.withDefaults()
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n == 0 {
		return &Assignment{Parts: []int32{}, K: k}, nil
	}
	if k == 1 {
		return &Assignment{Parts: make([]int32, n), K: 1}, nil
	}

	levels := []*level{refSymmetrize(g)}
	stopAt := m.CoarsenTo
	if floor := 8 * k; stopAt < floor {
		stopAt = floor
	}
	for {
		cur := levels[len(levels)-1]
		if cur.n <= stopAt {
			break
		}
		next := refCoarsen(cur, m.Seed+uint64(len(levels)))
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
		cand := refInitialPartition(coarsest, k, m.Seed+attempt*0x9e3779b9)
		refRebalance(coarsest, cand, k, balanceTol)
		refRefine(coarsest, cand, k, refinePasses, balanceTol)
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
		refRebalance(fine, parts, k, balanceTol)
		refRefine(fine, parts, k, refinePasses, balanceTol)
	}

	a := &Assignment{Parts: parts, K: k}
	if err := a.Validate(g); err != nil {
		return nil, fmt.Errorf("partition: multilevel produced invalid assignment: %w", err)
	}
	return a, nil
}

// refSymmetrize builds the undirected weighted level-0 graph: edge (u,v) and
// (v,u) in the digraph both contribute weight 1 to the undirected edge
// {u,v}; self loops are dropped (they never affect cuts).
func refSymmetrize(g *graph.Graph) *level {
	n := g.NumVertices()
	type half struct {
		u, v int32
	}
	pairs := make([]half, 0, 2*g.NumEdges())
	g.ForEachEdge(func(s, d graph.VertexID, w float32) bool {
		if s != d {
			pairs = append(pairs, half{int32(s), int32(d)})
			pairs = append(pairs, half{int32(d), int32(s)})
		}
		return true
	})
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].v < pairs[j].v
	})
	lv := &level{n: n, xadj: make([]int64, n+1), vwt: make([]int64, n)}
	for i := range lv.vwt {
		lv.vwt[i] = 1
	}
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		lv.adj = append(lv.adj, pairs[i].v)
		lv.ewt = append(lv.ewt, int64(j-i))
		lv.xadj[pairs[i].u+1]++
		i = j
	}
	for v := 0; v < n; v++ {
		lv.xadj[v+1] += lv.xadj[v]
	}
	return lv
}

// refCoarsen contracts a heavy-edge matching of lv into a coarser level and
// records lv.cmap.
func refCoarsen(lv *level, seed uint64) *level {
	n := lv.n
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	// Visit order: pseudo-random permutation from a multiplicative hash to
	// avoid pathological id-order matchings.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		hi := (uint64(order[i]) + seed) * 0x9e3779b97f4a7c15
		hj := (uint64(order[j]) + seed) * 0x9e3779b97f4a7c15
		return hi < hj
	})
	for _, v := range order {
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
	// Assign coarse ids.
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	cn := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = cn
		if m := match[v]; m != v {
			cmap[m] = cn
		}
		cn++
	}
	lv.cmap = cmap

	// Build the coarse graph by aggregating edges between coarse vertices.
	coarse := &level{n: int(cn), xadj: make([]int64, cn+1), vwt: make([]int64, cn)}
	for v := 0; v < n; v++ {
		coarse.vwt[cmap[v]] += lv.vwt[v]
	}
	type cedge struct {
		u, v int32
		w    int64
	}
	edges := make([]cedge, 0, len(lv.adj))
	for v := int32(0); v < int32(n); v++ {
		cu := cmap[v]
		for i := lv.xadj[v]; i < lv.xadj[v+1]; i++ {
			cv := cmap[lv.adj[i]]
			if cu == cv {
				continue
			}
			edges = append(edges, cedge{cu, cv, lv.ewt[i]})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	for i := 0; i < len(edges); {
		j := i
		var w int64
		for j < len(edges) && edges[j].u == edges[i].u && edges[j].v == edges[i].v {
			w += edges[j].w
			j++
		}
		coarse.adj = append(coarse.adj, edges[i].v)
		coarse.ewt = append(coarse.ewt, w)
		coarse.xadj[edges[i].u+1]++
		i = j
	}
	for v := int32(0); v < cn; v++ {
		coarse.xadj[v+1] += coarse.xadj[v]
	}
	return coarse
}

// refRebalance enforces the weight bounds by explicit moves: while some part
// exceeds maxW (or sits below minW), move the cheapest boundary vertex
// from the heaviest part to the lightest. Cut quality is secondary here —
// refine restores it afterwards.
func refRebalance(lv *level, parts []int32, k int, tol float64) {
	weights := make([]int64, k)
	var total int64
	for v := 0; v < lv.n; v++ {
		weights[parts[v]] += lv.vwt[v]
		total += lv.vwt[v]
	}
	minW, maxW := bounds(total, k, tol)
	conn := make([]int64, k)
	touched := make([]int32, 0, 8)
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
		// Pick the vertex in `heavy` whose move to `light` damages the cut
		// least, preferring vertices already adjacent to `light`.
		bestV := int32(-1)
		bestScore := int64(1) << 62
		for v := int32(0); v < int32(lv.n); v++ {
			if parts[v] != heavy {
				continue
			}
			touched = touched[:0]
			for i := lv.xadj[v]; i < lv.xadj[v+1]; i++ {
				p := parts[lv.adj[i]]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += lv.ewt[i]
			}
			score := conn[heavy] - conn[light] // cut damage of the move
			for _, p := range touched {
				conn[p] = 0
			}
			if score < bestScore {
				bestScore, bestV = score, v
			}
		}
		if bestV < 0 {
			return // heavy part has no vertices (k > n at this level)
		}
		weights[heavy] -= lv.vwt[bestV]
		weights[light] += lv.vwt[bestV]
		parts[bestV] = light
	}
}

// refInitialPartition grows k regions on the coarsest graph by repeated BFS
// from spread seeds, always extending the lightest part.
func refInitialPartition(lv *level, k int, seed uint64) []int32 {
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
			for v := int32(0); v < int32(lv.n); v++ {
				if parts[v] < 0 {
					parts[v] = int32(light)
					weights[light] += lv.vwt[v]
					queues[light] = append(queues[light], v)
					assigned++
					break
				}
			}
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

// refRefine performs greedy boundary refinement: each pass scans vertices,
// computes the connectivity gain of moving to the best adjacent part, and
// applies the move if it strictly reduces the cut while keeping part
// weights within [minW, maxW]. Stops early when a pass makes no moves.
func refRefine(lv *level, parts []int32, k int, passes int, tol float64) {
	weights := make([]int64, k)
	var total int64
	for v := 0; v < lv.n; v++ {
		weights[parts[v]] += lv.vwt[v]
		total += lv.vwt[v]
	}
	minW, maxW := bounds(total, k, tol)
	conn := make([]int64, k) // reused per-vertex connectivity scratch
	touched := make([]int32, 0, 8)
	for pass := 0; pass < passes; pass++ {
		moves := 0
		for v := int32(0); v < int32(lv.n); v++ {
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
			for _, p := range touched {
				if p == home {
					continue
				}
				gain := conn[p] - conn[home]
				if gain > bestGain && weights[p]+lv.vwt[v] <= maxW {
					bestGain, best = gain, p
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best != home {
				parts[v] = best
				weights[home] -= lv.vwt[v]
				weights[best] += lv.vwt[v]
				moves++
			}
		}
		if moves == 0 {
			break
		}
	}
}
