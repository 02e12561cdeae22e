package agent

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/simclock"
)

// genHorizon is the span, in iterations, over which the generator places
// its entries; runs go on for genTail more so the last recovery ends.
const genHorizon, genTail = 300, 40

// genAction is one scheduled call on the system. order is the chaos
// package's same-instant precedence (window closers, then openers, then
// crashes), so ties inject in the order chaos.Arm would.
type genAction struct {
	at    simclock.Time
	order int
	fn    func(*System)
}

// generatedSchedule draws 3–10 entries of the six chaos builder kinds —
// crash, correlated crash, partition, straggler, KV outage and lease
// jitter — at uniform instants over genHorizon iterations on n machines.
// Windows of one kind never overlap (chaos.Schedule.Validate's rule: a
// heal or restore ends every open window at once); a draw that would
// overlap is redrawn. It returns the actions in injection order and a
// one-line description of each entry.
func generatedSchedule(seed int64, n int) ([]genAction, []string) {
	rng := rand.New(rand.NewSource(seed))
	var acts []genAction
	var desc []string
	type window struct{ from, to simclock.Time }
	var partitions, outages []window
	stragglers := map[int][]window{}
	overlaps := func(ws []window, from, to simclock.Time) bool {
		for _, w := range ws {
			if from <= w.to && w.from <= to {
				return true
			}
		}
		return false
	}
	state := func() cluster.MachineState {
		if rng.Intn(2) == 0 {
			return cluster.SoftwareFailed
		}
		return cluster.HardwareFailed
	}
	add := func(at simclock.Time, order int, fn func(*System)) {
		acts = append(acts, genAction{at: at, order: order, fn: fn})
	}
	for entries := 3 + rng.Intn(8); len(desc) < entries; {
		at := simclock.Time(rng.Float64() * genHorizon * float64(iterTime))
		switch rng.Intn(6) {
		case 0:
			rank, st := rng.Intn(n), state()
			add(at, 7, func(s *System) { s.InjectFailure(rank, st) })
			desc = append(desc, fmt.Sprintf("crash %v rank %d %v", at, rank, st))
		case 1:
			ranks := rng.Perm(n)[:2+rng.Intn(2)]
			st := state()
			add(at, 8, func(s *System) { s.InjectCorrelated(st, ranks...) })
			desc = append(desc, fmt.Sprintf("correlated %v ranks %v %v", at, ranks, st))
		case 2:
			heal := at.Add(simclock.Duration(5 + rng.Float64()*595))
			if overlaps(partitions, at, heal) {
				continue
			}
			partitions = append(partitions, window{at, heal})
			ranks := rng.Perm(n)[:1+rng.Intn(2)]
			add(at, 3, func(s *System) { s.StartPartition(ranks...) })
			add(heal, 0, func(s *System) { s.HealPartition() })
			desc = append(desc, fmt.Sprintf("partition %v–%v ranks %v", at, heal, ranks))
		case 3:
			rank := rng.Intn(n)
			end := at.Add(simclock.Duration(1+rng.Float64()*20) * iterTime)
			if overlaps(stragglers[rank], at, end) {
				continue
			}
			stragglers[rank] = append(stragglers[rank], window{at, end})
			factor := 0.1 + 0.8*rng.Float64()
			add(at, 5, func(s *System) { s.SetStraggler(rank, factor) })
			add(end, 2, func(s *System) { s.SetStraggler(rank, 1) })
			desc = append(desc, fmt.Sprintf("straggler %v–%v rank %d ×%.3f", at, end, rank, factor))
		case 4:
			restore := at.Add(simclock.Duration(2 + rng.Float64()*178))
			if overlaps(outages, at, restore) {
				continue
			}
			outages = append(outages, window{at, restore})
			add(at, 4, func(s *System) { s.SetKVAvailable(false) })
			add(restore, 1, func(s *System) { s.SetKVAvailable(true) })
			desc = append(desc, fmt.Sprintf("kv-outage %v–%v", at, restore))
		case 5:
			max := simclock.Duration(0.5 + rng.Float64()*4.5)
			add(at, 6, func(s *System) { s.SetLeaseJitter(max) })
			desc = append(desc, fmt.Sprintf("lease-jitter %v up to %v", at, max))
		}
	}
	sort.SliceStable(acts, func(i, j int) bool {
		if acts[i].at != acts[j].at {
			return acts[i].at < acts[j].at
		}
		return acts[i].order < acts[j].order
	})
	return acts, desc
}

// generatedPins is the sha256 of writeOutcome's rendering of each
// generated run, by seed and then strategy. Print new pins with
//
//	go test ./internal/agent -run TestGeneratedChaosOutcomesPinned -update -v
var generatedPins = map[string]string{
	"1/gemini":   "8a992338678d55b2cb3e76a1626717ea203aa0ad0a5bf20d504935f25a368153",
	"1/tiered":   "a04eb8d84cb19ddc40b5222c02c8b9d5b165ec7e1dc7e9a5c7ff5239ab594e20",
	"1/sparse":   "2fc351849e31480deb8feb80ba52282addb6dfaece2debfaa962837d3f82ae98",
	"1/adaptive": "57875a6754659d8a9fff53f6531976213f4bac3b0d4c6adb9ae576245b852c66",
	"2/gemini":   "64563a2f57d5e973ba0fbb4ae4df20a90a386d60ff7c8eaada7e6bdef5568ded",
	"2/tiered":   "6f9674e0c3cc7fe619a643addd5b03700072bc098d085499ce5ecf9c90ff4adb",
	"2/sparse":   "729a0d5b17aad9f8b403d213a583be081ea77014ca4ffd51b8970220d48b0472",
	"2/adaptive": "38dd38ba6dafa6a88bfa401a38f12c685cb9672c84d982ae87a83bfd2a7ce832",
	"3/gemini":   "3cd51ba096daf16907183c979ea87bcb1fa3100d90c9a6ba12962e799f03a1a6",
	"3/tiered":   "fa10fa9bade2974d7ad049ca0c45e7a67613f41bb96eb8c68b2116cfb0c0ea1d",
	"3/sparse":   "8782ce8e3ec93d5e63bd9bc76e291de5df0f110542fb2febfe17645442cbab41",
	"3/adaptive": "bc892e332d6de1d66a94b40f2f6b757530dde83e16194fee8f1b118f9abdbb81",
	"4/gemini":   "49e6b000c730dfdb2a1b2abc42c52705e95fcf9b830763c870b9dda62dfa2d82",
	"4/tiered":   "2fb8144918985150fa52856ca6ce469a3d15b748afefbff7578e4c0de5839c0a",
	"4/sparse":   "c5ceff0bfd3ba4f048360e8c8f41f32622570665f52cad30032de7cf8c74f70b",
	"4/adaptive": "4b3ae6635d7631a3d6e5f39b22cb296611baee1ba94050d004fb01fe018b1306",
	"5/gemini":   "4c1643886c219297bb73d8e6f60db6e1945b0b2c8e5c5f3190fb7071dbf4df9c",
	"5/tiered":   "e07f25316653f6bd33d5626f221c9acd9f8826b2aaf4379bd09163768ef7ad97",
	"5/sparse":   "3a6534aa9fdf5f6780a314ca84818f2d8c52d1465eb91cb7f18572df8166ae11",
	"5/adaptive": "cebc94e3e2719c19829a524b2d1d6bb9368a140a1aa83b9fdbaac08760b2627e",
	"6/gemini":   "c66a5976dcec2b2bdbd36570784760a85eae405a144a6d778aa629cd7fe53b39",
	"6/tiered":   "38e9708c59cd3c6b5f2e23baa430c648bc8dd477752ce718cf5f363c56b64386",
	"6/sparse":   "4f7eee0ea183fa71e151802d85cda648f5741e8229d2dd98e0853274b8d589ac",
	"6/adaptive": "1c92ad4c966835b107ff973573091d83965803c099e549ca21a708ca68755130",
	"7/gemini":   "35fc9d5e567fc6a593d8eee7071b0a63f257078ceb7f2eea5d321d323cb0f193",
	"7/tiered":   "ba6739493614076ff52fe0401718b515d5e54a69155fad283b13e926e8add96f",
	"7/sparse":   "a43dce9a851bccd757eeed54328d84733b526eaaa08bb18f47b768e3b9f6e528",
	"7/adaptive": "dbceb450869a6ca863ea68020ffea3b7d2549565a783c35784efeeed1a39ef75",
	"8/gemini":   "90e508ae180ab616b8f39fb8bf50892ff93a62cc78d3f3e3079d0ca544977c07",
	"8/tiered":   "fa6edf3ae649582ffea5c074b64a811420c57450a08d04fd47fe07eff9d8b797",
	"8/sparse":   "3803b8304cccfe3d1a76e7c08f4d282451d1314dcb860aa1c0244120a5634ea3",
	"8/adaptive": "4e0abc8ddd4971b41d2998f2b6bc0a950e773bae5d991dd098375c7dded01240",
}

// TestGeneratedChaosOutcomesPinned runs 8 generated schedules under the
// four strategies on 16 machines and pins every run's full outcome
// rendering (event log, Eq. 1 ledger, traffic and KV event stream) by
// sha256. writeOutcome checks after every event that no rank trains on
// a failed machine. The pins fix results, not event counts, so an
// engine change that fires fewer events must leave them alone.
func TestGeneratedChaosOutcomesPinned(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		acts, desc := generatedSchedule(seed, 16)
		sc := outcomeScenario{
			name: fmt.Sprintf("generated-%d", seed), spec: testSpec, opts: DefaultOptions(), cloud: cloud.DefaultConfig(),
			horizon: simclock.Time((genHorizon + genTail) * iterTime),
			arm: func(f *fixture) {
				for _, a := range acts {
					a := a
					f.engine.At(a.at, func() { a.fn(f.sys) })
				}
			},
		}
		for _, name := range []string{"gemini", "tiered", "sparse", "adaptive"} {
			var buf bytes.Buffer
			writeOutcome(t, &buf, sc, name, nil)
			sum := sha256.Sum256(buf.Bytes())
			key, got := fmt.Sprintf("%d/%s", seed, name), hex.EncodeToString(sum[:])
			if *updateGolden {
				fmt.Printf("\t%q: %q,\n", key, got)
				continue
			}
			if want := generatedPins[key]; got != want {
				t.Errorf("%s: outcome sha256 %s, want %s; schedule:\n%v", key, got, want, desc)
			}
		}
	}
}
