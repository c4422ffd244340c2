package core

import (
	"sync"
	"time"

	"podium/internal/groups"
	"podium/internal/profile"
)

// This file is the one eager selection engine: Algorithm 1 driven by a
// rule's credit schedule (rules.go). It serves Greedy, GreedyRule, the merge
// and completion rounds, and SelectorState.Select (the select cache's miss
// path); EBS instances under the coverage rule route to ebs.go instead. The
// engine makes four execution choices, none of which alters output:
//
//  1. Adjacency is read from the Index's frozen CSR view — contiguous
//     user→groups and group→members rows — so every hot loop is a linear
//     scan without pointer chasing.
//
//  2. Candidates live in a compacted ascending list rather than a boolean
//     mask over all n users. The per-pick argmax touches only the remaining
//     |𝒰′| candidates, which matters when customization refines the
//     population to a small 𝒰′ (custom.go) and late in large selections.
//
//  3. Empty-selection marginals start from an O(n) copy of a base row: the
//     caller's seed (a SelectorState's delta-repaired row), else the
//     instance's memoized BaseMarginals for the default rule, else one
//     rule-computed O(links) pass. All three are, per user, the float sum of
//     that user's CSR row in ascending group order, so the source changes
//     how much work a run does, never its picks.
//
//  4. With Options.Parallelism > 1, the argmax and retraction loops shard
//     across workers. Determinism is preserved structurally: shards are
//     contiguous index ranges, each worker reports a local (marginal,
//     lowest-index) best, and the reduction scans shards in ascending order
//     accepting only strictly greater marginals — exactly the total order
//     the sequential scan implies. Float sums are unchanged because
//     retractions apply exactly one subtraction per (group, member) pair in
//     the same group order as the sequential loop.
//
// Result.Evaluations counts the link traversals a run performs: the
// candidates' initial rows (not counted when the caller seeds the base row,
// whose owner paid for it) plus every member row a credit change retracts.
// Whole member rows are walked (no per-member candidacy branch), so a
// retraction counts every member link, where the pre-CSR implementation
// (reference.go) counted only remaining candidates.

// engineParallelCutoff is the element count below which sharding a loop is
// not worth the goroutine fan-out. A package variable so the equivalence
// tests can force the sharded paths on tiny instances.
var engineParallelCutoff = 256

// selectRule is the one select path: EBS instances under the coverage rule
// take the exact rank-vector greedy, everything else the eager engine,
// seeded from base when non-nil. Callers have checked rule/instance
// compatibility.
func selectRule(inst *groups.Instance, budget int, allowed []bool, base []float64, r *Rule, opt Options) *Result {
	if inst.EBS && r.ebsExact {
		return ebsGreedy(inst, budget, allowed)
	}
	return eagerGreedy(inst, budget, allowed, nil, base, r, opt)
}

// eagerGreedy runs Algorithm 1 under rule r. Per group it tracks the
// selected-member count and the current credit; when a pick moves a group
// down its schedule, the credit delta is retracted from every member's
// marginal. For the coverage rule a credit change is exactly a saturation
// (wei(G) → 0). t0, when non-nil, pre-advances each group's schedule
// (resuming from a partial panel — see GreedyCompleteRule). base, never set
// together with t0, seeds marg_{u,∅} under r for every user; it is copied,
// never mutated.
func eagerGreedy(inst *groups.Instance, budget int, allowed []bool, t0 []int, base []float64, r *Rule, opt Options) *Result {
	ix := inst.Index
	n := ix.Repo().NumUsers()
	res := &Result{}
	if budget <= 0 || n == 0 {
		return res
	}
	csr := ix.CSR()
	workers := opt.workerCount()
	credit := r.credits(inst)
	nG := ix.NumGroups()

	// Optional stage clock. All timing sites guard on tim != nil, so the
	// uninstrumented path pays one predictable branch per stage boundary.
	tim := opt.Timings
	var tc time.Time
	if tim != nil {
		tim.Runs++
		tc = time.Now()
	}

	// Compacted candidate list 𝒰′, ascending so scans inherit the
	// lowest-index tie-break.
	cand := make([]int32, 0, n)
	for u := 0; u < n; u++ {
		if allowed == nil || allowed[u] {
			cand = append(cand, int32(u))
		}
	}
	if len(cand) == 0 {
		return res
	}

	// Line 2: marg_{u,∅} = Σ_{G∋u} w_G(0): a copy of the caller's seed or
	// of the default rule's memoized row when one applies, else a fresh sum.
	row := base
	if row == nil && t0 == nil && r.def {
		row = inst.BaseMarginals()
	}
	var marg []float64
	if row != nil {
		marg = make([]float64, n)
		copy(marg, row)
	} else {
		marg = r.baseFrom(inst, t0)
	}
	if base == nil {
		for _, cu := range cand {
			res.Evaluations += csr.UserDegree(profile.UserID(cu))
		}
	}

	// Schedule position and current credit per group.
	cnt := make([]int, nG)
	curW := make([]float64, nG)
	for g := 0; g < nG; g++ {
		t := 0
		if t0 != nil {
			t = t0[g]
			cnt[g] = t
		}
		curW[g] = credit(g, t)
	}

	// The selection size is known up front; pre-sizing the result slices
	// keeps the pick loop allocation-free.
	picks := budget
	if picks > len(cand) {
		picks = len(cand)
	}
	res.Users = make([]profile.UserID, 0, picks)
	res.Marginals = make([]float64, 0, picks)

	if tim != nil {
		tim.InitNs += time.Since(tc).Nanoseconds()
	}

	for i := 0; i < budget && len(cand) > 0; i++ {
		// Line 5: arg max marginal over the candidate list, ties toward the
		// lowest index.
		if tim != nil {
			tim.Picks++
			tc = time.Now()
		}
		var bi int
		if workers > 1 && len(cand) >= engineParallelCutoff {
			bi = parallelArgmax(cand, marg, workers, tim)
		} else {
			bm := marg[cand[0]]
			for j := 1; j < len(cand); j++ {
				if marg[cand[j]] > bm {
					bm = marg[cand[j]]
					bi = j
				}
			}
		}
		if tim != nil {
			tim.ArgmaxNs += time.Since(tc).Nanoseconds()
		}
		best := int(cand[bi])
		// Line 6: move best from 𝒰 to U, keeping the list ascending.
		cand = append(cand[:bi], cand[bi+1:]...)
		res.Users = append(res.Users, profile.UserID(best))
		res.Marginals = append(res.Marginals, marg[best])
		res.Score += marg[best]
		// Lines 7-10: advance each of best's groups along its schedule and
		// retract any credit drop from every member's marginal. Members no
		// longer candidates are retracted too — their marginals are never
		// read again — which removes the per-member candidacy branch from
		// the hot loop.
		if tim != nil {
			tc = time.Now()
		}
		for _, g := range csr.UserGroups(profile.UserID(best)) {
			t := cnt[g] + 1
			cnt[g] = t
			nw := credit(int(g), t)
			if nw == curW[g] {
				continue
			}
			d := curW[g] - nw
			curW[g] = nw
			members := csr.Members(g)
			res.Evaluations += len(members)
			if workers > 1 && len(members) >= engineParallelCutoff {
				shardRange(len(members), workers, func(lo, hi int) {
					for _, m := range members[lo:hi] {
						marg[m] -= d
					}
				})
			} else {
				for _, m := range members {
					marg[m] -= d
				}
			}
		}
		if tim != nil {
			tim.RetractNs += time.Since(tc).Nanoseconds()
		}
	}
	return res
}

// shardRange splits [0,n) into at most `workers` contiguous chunks and runs
// body(lo,hi) on each concurrently, returning when all are done. Chunks are
// disjoint, so bodies writing to distinct per-element slots do not race.
func shardRange(n, workers int, body func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parallelArgmax returns the position in cand of the candidate with the
// greatest marginal, ties toward the lowest user index. Each worker scans a
// contiguous shard ascending with a strictly-greater comparison; the
// reduction visits shards in ascending order with the same strictly-greater
// rule, so the winner is identical to a single ascending scan. tim, when
// non-nil, accrues the reduction's cost as the merge stage.
func parallelArgmax(cand []int32, marg []float64, workers int, tim *StageTimings) int {
	n := len(cand)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	type localBest struct {
		idx int
		val float64
	}
	bests := make([]localBest, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		bests = append(bests, localBest{idx: -1})
	}
	var wg sync.WaitGroup
	shard := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			bi := lo
			bm := marg[cand[lo]]
			for j := lo + 1; j < hi; j++ {
				if marg[cand[j]] > bm {
					bm = marg[cand[j]]
					bi = j
				}
			}
			bests[shard] = localBest{idx: bi, val: bm}
		}(shard, lo, hi)
		shard++
	}
	wg.Wait()
	var t0 time.Time
	if tim != nil {
		t0 = time.Now()
	}
	best := bests[0]
	for _, b := range bests[1:] {
		if b.val > best.val {
			best = b
		}
	}
	if tim != nil {
		tim.MergeNs += time.Since(t0).Nanoseconds()
	}
	return best.idx
}
