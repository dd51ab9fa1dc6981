package main

import "sort"

// The report→estimate join. Every generated batch carries exactly one
// report per link, and Estimate.Reports is the zone's cumulative count
// of folded reports, so the k-th accepted batch of a zone (1-based) is
// covered by the first estimate whose Reports is at least k × links.
// The same fact lets the live vector behind any estimate be rebuilt
// from the accepted batches alone.

// cover returns, for every required count in need (non-decreasing),
// the index of the first entry of reports (in receive order) that is at
// least that count, or -1 when no received estimate covers it. Dropped
// estimates simply leave gaps and coalesced ones jump counts; neither
// disturbs the rule, and the running maximum keeps it correct even if
// counts were ever delivered out of order.
func cover(need, reports []uint64) []int {
	out := make([]int, len(need))
	j := 0
	var best uint64
	for i, n := range need {
		for j < len(reports) && best < n {
			if reports[j] > best {
				best = reports[j]
			}
			j++
		}
		if best >= n && j > 0 {
			out[i] = j - 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// accepted is the pool index and phase of every batch a zone accepted,
// in order, kept as runs: a run grows while each accepted batch's pool
// index follows the previous one in the same phase. Sends walk the pool
// in order and only a shed batch breaks a run, so a saturation phase
// that accepts millions of batches keeps a few thousand runs, and the
// benchmark's own memory does not grow with the service's throughput,
// which heap_peak_mb would count.
type accepted struct {
	pool int32 // pool size; indexes wrap modulo it
	n    int   // batches accepted
	runs []accRun
}

type accRun struct {
	first int   // number of the run's first batch, from 0
	pidx  int32 // its pool index
	phase uint8
}

func (a *accepted) add(pidx int32, phase uint8) {
	if k := len(a.runs); k > 0 {
		r := a.runs[k-1]
		if r.phase == phase && (r.pidx+int32(a.n-r.first))%a.pool == pidx {
			a.n++
			return
		}
	}
	a.runs = append(a.runs, accRun{first: a.n, pidx: pidx, phase: phase})
	a.n++
}

// at returns the pool index and the phase of accepted batch j, from 0.
func (a *accepted) at(j int) (int32, uint8) {
	i := sort.Search(len(a.runs), func(i int) bool { return a.runs[i].first > j }) - 1
	r := a.runs[i]
	return (r.pidx + int32(j-r.first)) % a.pool, r.phase
}

// windowMean rebuilds into dst (one entry per link) the live vector a
// zone's fold averaged after folding its first n accepted batches: per
// link, the mean of the newest min(n, w) samples in a w-deep ring. The
// sum runs in ring-slot order, as the fold keeps its ring, so the
// rebuilt vector matches the served one to the bit. vecs[p] is the
// per-link RSS vector of pool batch p.
func windowMean(dst []float64, vecs [][]float64, acc *accepted, n, w int) {
	fill := n
	if fill > w {
		fill = w
	}
	for i := range dst {
		dst[i] = 0
	}
	for s := 0; s < fill; s++ {
		// The newest accepted batch that landed in slot s.
		j := s + w*((n-1-s)/w)
		p, _ := acc.at(j)
		v := vecs[p]
		for i := range dst {
			dst[i] += v[i]
		}
	}
	for i := range dst {
		dst[i] /= float64(fill)
	}
}
