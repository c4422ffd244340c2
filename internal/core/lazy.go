package core

import (
	"container/heap"

	"podium/internal/groups"
	"podium/internal/profile"
)

// LazyGreedy is Minoux's accelerated greedy. Submodularity of the score
// function (Prop. 4.4) guarantees every user's marginal contribution only
// shrinks as the selection grows, so a stale value is a valid upper bound:
// keep users in a max-heap keyed by their last known marginal, pop, refresh,
// and select as soon as the refreshed entry still beats the heap top. The
// output is identical to Greedy — including tie-breaking, because the heap
// orders by (marginal, lowest user index) and a popped entry is selected
// only if it beats the top under that same total order.
//
// Whether lazy evaluation wins is instance-dependent: it avoids Algorithm
// 1's per-saturation member updates but pays a full marginal recomputation
// per pop, so it shines when groups are large (saturations are expensive)
// and the leaderboard is stable, and loses on small dense instances. The
// lazy ablation (RunLazyAblation / BenchmarkAblationEagerVsLazy) reports
// both variants' link-traversal counts rather than presuming a winner.
//
// No serving path runs it: every production select, including the select
// cache's miss path, runs the eager engine (engine.go). The lazy variant
// serves the eager-vs-lazy ablation, podium.WithLazyGreedy and the
// baselines, and the property suites hold it to the eager engine bit for bit.
func LazyGreedy(inst *groups.Instance, budget int) *Result {
	return LazyGreedyRestrictedOpts(inst, budget, nil, Options{})
}

// LazyGreedyOpts is LazyGreedy with explicit engine Options. Parallelism
// shards the initial marginal computation (the heap build); the pop/refresh
// loop stays sequential, as each refresh depends on the previous selection.
func LazyGreedyOpts(inst *groups.Instance, budget int, opt Options) *Result {
	return LazyGreedyRestrictedOpts(inst, budget, nil, opt)
}

// LazyGreedyRestricted is LazyGreedy over a restricted candidate set.
func LazyGreedyRestricted(inst *groups.Instance, budget int, allowed []bool) *Result {
	return LazyGreedyRestrictedOpts(inst, budget, allowed, Options{})
}

// LazyGreedyRestrictedOpts is LazyGreedyRestricted with explicit engine
// Options. Output is identical at every Parallelism: initial keys are exact
// row sums either way, and the pop order is fully determined by the heap's
// strict (marginal desc, index asc) total order regardless of how the heap
// was built.
func LazyGreedyRestrictedOpts(inst *groups.Instance, budget int, allowed []bool, opt Options) *Result {
	return lazyGreedyRule(inst, budget, allowed, ruleCoverage, opt)
}

// lazyGreedyRule is the shared lazy-greedy body, parameterized by a selection
// rule (rules.go). The coverage rule reproduces the historical behavior bit
// for bit: its current credits are wei(G) while unsaturated and exactly 0.0
// after, and adding a 0.0 term to a non-negative partial sum is the identity,
// so the generalized refresh sums round like the old cov-guarded ones.
// Callers must have checked rule/instance compatibility (EBS).
func lazyGreedyRule(inst *groups.Instance, budget int, allowed []bool, r *Rule, opt Options) *Result {
	if inst.EBS && r.ebsExact {
		// Exact EBS comparisons need rank vectors, not float keys.
		return ebsGreedy(inst, budget, allowed)
	}
	ix := inst.Index
	n := ix.Repo().NumUsers()
	res := &Result{}
	if budget <= 0 || n == 0 {
		return res
	}
	ls := newLazyRunRule(inst, res, r)

	entries := make([]margEntry, 0, n)
	for u := 0; u < n; u++ {
		if allowed == nil || allowed[u] {
			entries = append(entries, margEntry{user: u})
		}
	}
	workers := opt.workerCount()
	if workers > 1 && len(entries) >= engineParallelCutoff {
		// refresh mutates res.Evaluations; count the work up front and sum
		// each shard's rows without the shared counter.
		csr, curW := ls.csr, ls.curW
		for i := range entries {
			res.Evaluations += csr.UserDegree(profile.UserID(entries[i].user))
		}
		shardRange(len(entries), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var m float64
				for _, g := range csr.UserGroups(profile.UserID(entries[i].user)) {
					m += curW[g]
				}
				entries[i].key = m
			}
		})
	} else {
		for i := range entries {
			entries[i].key = ls.refresh(entries[i].user)
		}
	}
	ls.run(entries, budget)
	return res
}

// lazyRun is the shared state of one lazy-greedy execution: each group's
// schedule position and current credit, and the refresh primitive the
// pop/refresh/select loop runs on.
type lazyRun struct {
	inst   *groups.Instance
	csr    *groups.CSR
	credit creditFunc
	// cnt[g] counts selected members of g; curW[g] = credit(g, cnt[g]) is the
	// gain g contributes to its next selected member.
	cnt  []int
	curW []float64
	res  *Result
}

func newLazyRunRule(inst *groups.Instance, res *Result, r *Rule) *lazyRun {
	credit := r.credits(inst)
	nG := inst.Index.NumGroups()
	ls := &lazyRun{
		inst:   inst,
		csr:    inst.Index.CSR(),
		credit: credit,
		cnt:    make([]int, nG),
		curW:   make([]float64, nG),
		res:    res,
	}
	for g := 0; g < nG; g++ {
		ls.curW[g] = credit(g, 0)
	}
	return ls
}

// refresh computes the true marginal contribution of u under the current
// schedule state, summed over u's CSR row in ascending group order.
func (ls *lazyRun) refresh(u int) float64 {
	gs := ls.csr.UserGroups(profile.UserID(u))
	ls.res.Evaluations += len(gs)
	var m float64
	for _, g := range gs {
		m += ls.curW[g]
	}
	return m
}

// run executes Minoux's pop/refresh/select loop over the initialized entries.
// entries must carry exact marg_{u,∅} keys; run owns the slice.
func (ls *lazyRun) run(entries []margEntry, budget int) {
	res := ls.res
	h := (*margHeap)(&entries)
	heap.Init(h)

	for i := 0; i < budget && h.Len() > 0; i++ {
		var pick margEntry
		for {
			top := heap.Pop(h).(margEntry)
			if h.Len() == 0 {
				top.key = ls.refresh(top.user)
				pick = top
				break
			}
			fresh := ls.refresh(top.user)
			next := (*h)[0]
			// Select only if the refreshed entry still wins under the same
			// (marginal desc, index asc) order the heap uses; otherwise
			// reinsert. The order is total, so the maximum always
			// validates and the loop terminates.
			if fresh > next.key || (fresh == next.key && top.user < next.user) {
				top.key = fresh
				pick = top
				break
			}
			top.key = fresh
			heap.Push(h, top)
		}
		res.Users = append(res.Users, profile.UserID(pick.user))
		res.Marginals = append(res.Marginals, pick.key)
		res.Score += pick.key
		for _, g := range ls.csr.UserGroups(profile.UserID(pick.user)) {
			ls.cnt[g]++
			ls.curW[g] = ls.credit(int(g), ls.cnt[g])
		}
	}
}

type margEntry struct {
	user int
	key  float64
}

// margHeap is a max-heap over (key desc, user asc).
type margHeap []margEntry

func (h margHeap) Len() int { return len(h) }
func (h margHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key > h[j].key
	}
	return h[i].user < h[j].user
}
func (h margHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *margHeap) Push(x interface{}) { *h = append(*h, x.(margEntry)) }
func (h *margHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
