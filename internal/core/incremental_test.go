package core

import (
	"fmt"
	"math/rand"
	"testing"

	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/synth"
)

// applyRandomBatch applies ops random mutations to the (cloned) repo and
// index through the same funnels the mutable server uses: user additions via
// AddUser + IndexUser, score moves via SetScore + UpdateScore, and — when
// newProp is set — a brand-new property bucketed live via BucketProperty,
// which marks the batch reshaped.
func applyRandomBatch(t *testing.T, rng *rand.Rand, repo *profile.Repository, ix *groups.Index, ops int, newProp string) {
	t.Helper()
	labels := repo.Catalog().Labels()
	for i := 0; i < ops; i++ {
		if rng.Intn(4) == 0 {
			u := repo.AddUser(fmt.Sprintf("mut-user-%d-%d", repo.NumUsers(), i))
			for k := 0; k < 3; k++ {
				if err := repo.SetScore(u, labels[rng.Intn(len(labels))], rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ix.IndexUser(u); err != nil {
				t.Fatal(err)
			}
			continue
		}
		u := profile.UserID(rng.Intn(repo.NumUsers()))
		label := labels[rng.Intn(len(labels))]
		if err := repo.SetScore(u, label, rng.Float64()); err != nil {
			t.Fatal(err)
		}
		pid, _ := repo.Catalog().Lookup(label)
		if err := ix.UpdateScore(u, pid); err != nil {
			t.Fatal(err)
		}
	}
	if newProp != "" {
		u := profile.UserID(rng.Intn(repo.NumUsers()))
		if err := repo.SetScore(u, newProp, rng.Float64()); err != nil {
			t.Fatal(err)
		}
		pid, _ := repo.Catalog().Lookup(newProp)
		if err := ix.BucketProperty(pid, groups.Config{K: 3}); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: a delta-repaired SelectorState is bit-identical to fresh
// LazyGreedy (and the eager engine) after every randomized mutation batch.
// 50 instances across all three synthetic presets and all scheme pairs,
// checked at parallelism 1/2/8 after each of four batches per instance —
// including a reshaping batch (new property) and an oversized batch that
// exercises the conservative full-recompute fallback.
func TestSelectorStateBitIdentity(t *testing.T) {
	const budget = 6
	wss := []groups.WeightScheme{groups.WeightLBS, groups.WeightIden, groups.WeightEBS}
	css := []groups.CoverageScheme{groups.CoverSingle, groups.CoverProp}
	var totalRepairs, totalRecomputes uint64
	for i := 0; i < 50; i++ {
		users := 40 + i*5
		var cfg synth.Config
		switch i % 3 {
		case 0:
			cfg = synth.TripAdvisorLike(users)
		case 1:
			cfg = synth.YelpLike(users)
		default:
			cfg = synth.ScaleLike(users)
		}
		cfg.Seed += int64(i)
		ws := wss[i%len(wss)]
		cs := css[(i/3)%len(css)]
		t.Run(fmt.Sprintf("%s-%d-%s-%s", cfg.Name, users, ws, cs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + i)))
			repo := synth.Generate(cfg).Repo
			ix := groups.Build(repo, groups.Config{K: 3})
			ix.Freeze()

			st := NewSelectorState()
			inst := groups.NewInstance(ix, ws, cs, budget)
			st.Sync(inst, nil, false)

			check := func(round int, inst *groups.Instance) {
				t.Helper()
				want := LazyGreedyOpts(inst, budget, Options{})
				if eager := GreedyOpts(inst, budget, Options{}); !sameResult(want, eager) {
					t.Fatalf("round %d: lazy vs eager diverged", round)
				}
				for _, par := range []int{1, 2, 8} {
					if fresh := LazyGreedyOpts(inst, budget, Options{Parallelism: par}); !sameResult(want, fresh) {
						t.Fatalf("round %d: fresh lazy diverged at parallelism %d", round, par)
					}
					if got := st.Select(inst, budget, Options{Parallelism: par}); !sameResult(want, got) {
						t.Fatalf("round %d: repaired state diverged from fresh LazyGreedy at parallelism %d", round, par)
					}
				}
			}
			check(0, inst)

			for round := 1; round <= 4; round++ {
				repo2 := repo.Clone()
				ix2 := ix.Clone(repo2)
				ops := 1 + rng.Intn(6)
				newProp := ""
				switch round {
				case 3:
					// Reshape: a property first seen live.
					newProp = fmt.Sprintf("live-prop-%d-%d", i, round)
				case 4:
					// Oversized batch: force the threshold fallback.
					ops = repo2.NumUsers()
				}
				applyRandomBatch(t, rng, repo2, ix2, ops, newProp)
				// The delta may legitimately be empty: score updates that stay
				// in the same bucket move no adjacency. Sync still runs — an
				// empty repair must be as bit-identical as a busy one.
				d := ix2.TakeDelta()
				if newProp != "" && !d.Reshaped {
					t.Fatalf("round %d: BucketProperty batch not marked reshaped", round)
				}
				ix2.Freeze()
				repo, ix = repo2, ix2
				inst = groups.NewInstance(ix, ws, cs, budget)
				st.Sync(inst, d.Users, d.Reshaped)
				check(round, inst)
			}
			totalRepairs += st.Repairs
			totalRecomputes += st.Recomputes
		})
	}
	// Both Sync paths must actually have been exercised by the sweep.
	if totalRepairs == 0 {
		t.Fatal("no Sync took the delta-repair path")
	}
	if totalRecomputes == 0 {
		t.Fatal("no Sync took the full-recompute path")
	}
}

// TestSelectorStateSeededEngine holds the select cache's miss path —
// SelectorState.Select, the eager engine seeded from the repaired base row —
// to a fresh GreedyRule for every registered rule, at parallelism 1, 2 and 8
// with the sharded loops forced on, after each of several replayed TakeDelta
// batches (ordinary, reshaping and oversized). Every run must report exactly
// one engine run into StageTimings, one pick per selected user, and the
// seeded Evaluations accounting: the fresh run's count minus the initial
// rows the seed supplied. maxcov on an EBS instance covers the unseeded
// fallback, which counts like a fresh run.
func TestSelectorStateSeededEngine(t *testing.T) {
	forceShardedPaths(t)
	const budget = 7
	type tc struct {
		rule string
		ws   groups.WeightScheme
		cs   groups.CoverageScheme
		cfg  synth.Config
	}
	var cases []tc
	for _, r := range Rules() {
		cases = append(cases,
			tc{r.Name(), groups.WeightLBS, groups.CoverSingle, synth.ScaleLike(180)},
			tc{r.Name(), groups.WeightIden, groups.CoverProp, synth.YelpLike(150)})
	}
	cases = append(cases, tc{"maxcov", groups.WeightEBS, groups.CoverSingle, synth.TripAdvisorLike(160)})
	var repairs uint64

	for ci, c := range cases {
		t.Run(fmt.Sprintf("%s-%s-%s-%s", c.rule, c.ws, c.cs, c.cfg.Name), func(t *testing.T) {
			r := MustRule(c.rule)
			rng := rand.New(rand.NewSource(int64(13000 + ci)))
			repo := synth.Generate(c.cfg).Repo
			ix := groups.Build(repo, groups.Config{K: 3})
			ix.Freeze()
			st := NewSelectorStateRule(r)
			inst := groups.NewInstance(ix, c.ws, c.cs, budget)
			st.Sync(inst, nil, false)

			check := func(round int, inst *groups.Instance) {
				t.Helper()
				want, err := GreedyRule(inst, budget, r, Options{})
				if err != nil {
					t.Fatal(err)
				}
				seedRows := 0
				if !inst.EBS {
					csr := inst.Index.CSR()
					for u := 0; u < inst.Index.Repo().NumUsers(); u++ {
						seedRows += csr.UserDegree(profile.UserID(u))
					}
				}
				for _, par := range []int{1, 2, 8} {
					var tim StageTimings
					got := st.Select(inst, budget, Options{Parallelism: par, Timings: &tim})
					if !sameResult(want, got) {
						t.Fatalf("round %d parallelism %d: seeded select diverged from GreedyRule\nwant %v %v %v\ngot  %v %v %v",
							round, par, want.Users, want.Marginals, want.Score, got.Users, got.Marginals, got.Score)
					}
					if tim.Runs != 1 || tim.Picks != len(got.Users) {
						t.Fatalf("round %d parallelism %d: timings report %d runs, %d picks for %d users",
							round, par, tim.Runs, tim.Picks, len(got.Users))
					}
					if got.Evaluations != want.Evaluations-seedRows {
						t.Fatalf("round %d parallelism %d: %d evaluations, want fresh %d minus %d seeded rows",
							round, par, got.Evaluations, want.Evaluations, seedRows)
					}
				}
			}
			check(0, inst)

			for round := 1; round <= 4; round++ {
				repo2 := repo.Clone()
				ix2 := ix.Clone(repo2)
				ops := 1 + rng.Intn(6)
				newProp := ""
				switch round {
				case 3:
					newProp = fmt.Sprintf("seeded-live-prop-%d", ci)
				case 4:
					ops = repo2.NumUsers()
				}
				applyRandomBatch(t, rng, repo2, ix2, ops, newProp)
				d := ix2.TakeDelta()
				ix2.Freeze()
				repo, ix = repo2, ix2
				inst = groups.NewInstance(ix, c.ws, c.cs, budget)
				st.Sync(inst, d.Users, d.Reshaped)
				check(round, inst)
			}
			repairs += st.Repairs
		})
	}
	// fairness-floor's dominance constant moves with every LBS batch, so
	// it always recomputes; the sweep as a whole must still repair.
	if repairs == 0 {
		t.Fatal("no batch took the delta-repair path")
	}
}
