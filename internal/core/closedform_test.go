package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/placement"
	"gemini/internal/runsim"
	"gemini/internal/simclock"
)

// closedFormTrials is the number of failure groups each case walks.
const closedFormTrials = 4000

// isolatedGroups builds a schedule of trials all-hardware failure groups,
// one hour apart so that no two share a recovery, each failing the ranks
// draw returns.
func isolatedGroups(trials int, draw func() []int) failure.Schedule {
	var fs failure.Schedule
	for i := 0; i < trials; i++ {
		ranks := draw()
		slices.Sort(ranks)
		at := simclock.Time(i+1) * simclock.Time(simclock.Hour)
		for _, r := range ranks {
			fs = append(fs, failure.Event{At: at, Rank: r, Kind: cluster.HardwareFailed})
		}
	}
	return fs
}

// checkPeerFraction walks fs against p and checks that the fraction of
// groups recovered from a peer, FromPeer / (FromPeer + FromRemote), is
// want within a 4σ binomial bound for the trial count.
func checkPeerFraction(t *testing.T, j *Job, p *placement.Placement, fs failure.Schedule, trials int, want float64) {
	t.Helper()
	res, err := runsim.Run(runsim.Config{
		Spec:               j.GeminiSpec(),
		Placement:          p,
		Failures:           fs,
		Horizon:            simclock.Duration(trials+1) * simclock.Hour,
		SimultaneityWindow: 10 * simclock.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FromLocal != 0 || res.FromPeer+res.FromRemote != trials {
		t.Fatalf("recoveries local %d, peer %d, remote %d: want %d peer or remote",
			res.FromLocal, res.FromPeer, res.FromRemote, trials)
	}
	got := float64(res.FromPeer) / float64(trials)
	bound := 4 * math.Sqrt(want*(1-want)/float64(trials))
	t.Logf("peer fraction %.4f, closed form %.4f", got, want)
	if math.Abs(got-want) > bound {
		t.Errorf("walk recovers from a peer in %.4f of %d groups, closed form %.4f (4σ bound %.4f)",
			got, trials, want, bound)
	}
}

// runsim's walk recovers an all-hardware failure group from a peer
// exactly when the placement keeps a replica of every failed rank. Over
// many isolated groups, its peer fraction must therefore estimate the
// placement's closed form: Job.RecoveryProbability(k) for k uniformly
// drawn ranks (Corollary 1), and placement.CorrelatedProbability for k
// whole racks.
func TestWalkPeerFractionMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{16, 64} {
		j, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: n})
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 4; k++ {
			t.Run(fmt.Sprintf("uniform N=%d k=%d", n, k), func(t *testing.T) {
				fs := isolatedGroups(closedFormTrials, func() []int { return rng.Perm(n)[:k] })
				checkPeerFraction(t, j, j.Placement, fs, closedFormTrials, j.RecoveryProbability(k))
			})
		}
	}

	// Whole racks of four on 16 machines, under the job's own (mixed)
	// placement, whose replica groups each sit inside one rack, and under
	// the rack-aware one, which spreads every group across racks.
	j, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	if err != nil {
		t.Fatal(err)
	}
	racks, err := placement.Racks(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*placement.Placement{j.Placement, placement.MustRackAware(16, 2, 4)} {
		for k := 1; k < len(racks); k++ {
			t.Run(fmt.Sprintf("racks %s k=%d", p.Kind, k), func(t *testing.T) {
				want, err := placement.CorrelatedProbability(p, racks, k)
				if err != nil {
					t.Fatal(err)
				}
				fs := isolatedGroups(closedFormTrials, func() []int {
					var ranks []int
					for _, r := range rng.Perm(len(racks))[:k] {
						ranks = append(ranks, racks[r]...)
					}
					return ranks
				})
				checkPeerFraction(t, j, p, fs, closedFormTrials, want)
			})
		}
	}
}
