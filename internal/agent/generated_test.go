package agent

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"gemini/internal/chaos"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/simclock"
)

// genHorizon is the span, in iterations, over which the generator places
// its entries; runs go on for genTail more so the last recovery ends.
const genHorizon, genTail = 300, 40

// generatedSchedule draws 3–10 entries of the six chaos builder kinds —
// crash, correlated crash, partition, straggler, KV outage and lease
// jitter — at uniform instants over genHorizon iterations on n machines,
// and builds them with chaos.NewBuilder. Windows of one kind never
// overlap (chaos.Schedule.Validate's rule: a heal or restore ends every
// open window at once); a draw that would overlap is redrawn. It returns
// the built schedule and a one-line description of each entry.
func generatedSchedule(seed int64, n int) (chaos.Schedule, []string) {
	rng := rand.New(rand.NewSource(seed))
	b := chaos.NewBuilder()
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
	for entries := 3 + rng.Intn(8); len(desc) < entries; {
		at := simclock.Time(rng.Float64() * genHorizon * float64(iterTime))
		switch rng.Intn(6) {
		case 0:
			rank, st := rng.Intn(n), state()
			b.Crash(at, rank, st)
			desc = append(desc, fmt.Sprintf("crash %v rank %d %v", at, rank, st))
		case 1:
			ranks := rng.Perm(n)[:2+rng.Intn(2)]
			st := state()
			b.CrashGroup(at, st, ranks...)
			desc = append(desc, fmt.Sprintf("correlated %v ranks %v %v", at, ranks, st))
		case 2:
			dur := simclock.Duration(5 + rng.Float64()*595)
			heal := at.Add(dur)
			if overlaps(partitions, at, heal) {
				continue
			}
			partitions = append(partitions, window{at, heal})
			ranks := rng.Perm(n)[:1+rng.Intn(2)]
			b.Partition(at, dur, ranks...)
			desc = append(desc, fmt.Sprintf("partition %v–%v ranks %v", at, heal, ranks))
		case 3:
			rank := rng.Intn(n)
			dur := simclock.Duration(1+rng.Float64()*20) * iterTime
			end := at.Add(dur)
			if overlaps(stragglers[rank], at, end) {
				continue
			}
			stragglers[rank] = append(stragglers[rank], window{at, end})
			factor := 0.1 + 0.8*rng.Float64()
			b.Straggler(at, dur, rank, factor)
			desc = append(desc, fmt.Sprintf("straggler %v–%v rank %d ×%.3f", at, end, rank, factor))
		case 4:
			dur := simclock.Duration(2 + rng.Float64()*178)
			restore := at.Add(dur)
			if overlaps(outages, at, restore) {
				continue
			}
			outages = append(outages, window{at, restore})
			b.KVOutage(at, dur)
			desc = append(desc, fmt.Sprintf("kv-outage %v–%v", at, restore))
		case 5:
			max := simclock.Duration(0.5 + rng.Float64()*4.5)
			b.LeaseJitter(at, max)
			desc = append(desc, fmt.Sprintf("lease-jitter %v up to %v", at, max))
		}
	}
	return b.MustBuild(n), desc
}

// generatedPins is the sha256 of writeOutcome's rendering of each
// generated run on 16 machines, by seed and then strategy. Print the
// new pins of both maps with
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

// generatedPins64 is generatedPins for the same seeds on 64 machines.
var generatedPins64 = map[string]string{
	"1/gemini":   "1aae4e74eda4523e5474a8f10423f015e9c831c618f240d30eabb2005c23199a",
	"1/tiered":   "7a5adc8c31f1297f18f5542a37872e439282f2d5776220ddef0953b43019d071",
	"1/sparse":   "3afbe1665d1133c8462792c98dfc5361c28e80dd6e9db55eecceac667d9b055e",
	"1/adaptive": "b12181ff28c0990c544dad50e4b5ed29dd322f760aa5bf29574a71dc3a3e2dcc",
	"2/gemini":   "91f8e64d70cd89af7083a8983f920e118b13688c62e610dac9fbd5b7a447ab71",
	"2/tiered":   "a5ba06a9f2e4d4d55ca09492e3bdebd825aefc6cf47898697255fd3cffbd9fe7",
	"2/sparse":   "6a6329d190a88729cb2a4d7bdc45d578717fa764607ad25eb98de2c50b0a3a9c",
	"2/adaptive": "96c8c6ece524a8df792f888ba3424464bb38ef1ddbfbf18d514292a1131a22c8",
	"3/gemini":   "0c598fed475bb70515316d94b0b2dbfe8707cdef611900b835305e21ba5b23a7",
	"3/tiered":   "b3f0c832e7e6bd0abb008007940f2880d4fd886c29e162e8faf8436813033145",
	"3/sparse":   "ea6c7bc1656ac6cd9082e22025875428a59bd59ed70dffca8256e33429dd8376",
	"3/adaptive": "c2f42063ea689db168e2edd32532a9c88c7b27c416fa3832a423760ac1d7b624",
	"4/gemini":   "bf777a3bf35ca81dcb8c8641fe0303abf9ca6147018f7d230e96df00f44809b1",
	"4/tiered":   "389b7c13ccc5f59769b318ac7d44efac06c88f5121762c8faad4cb673c6e7926",
	"4/sparse":   "9fddecc995d7aabc8b642d341f78e102fa2291f8df8505d170e5b4312279135c",
	"4/adaptive": "e312f288f0ad84fb2226abe5a46e0f1ae52d46ddb409ba0cad0ed87fbd5ebf5d",
	"5/gemini":   "0ec9de64ce89363fb9ff0f395c8e5ebaefb490bac58d5bd847a32fe05bc1123a",
	"5/tiered":   "7db27f368ff0ab9a18bd59a04d14c5a2c1de464261f710968ead80a5f1e30f23",
	"5/sparse":   "69e91943a204483493dbd07d42c49477db6d59ebffcda95ad16621f294b4864c",
	"5/adaptive": "8392f52b812fd93fa7d1bfd0c356ef44563c4abbe49343d75c2d7f129fad2207",
	"6/gemini":   "584d5b85abaaca766b4ff45d404f613c90e7a15978af9de774ffea09b2390278",
	"6/tiered":   "a3797025e16b1f1c297b708f9919cc5509c293b9b1c05a40d3277bf180754258",
	"6/sparse":   "7fa93e646c30145a42fc7011a62341ef46615c034ac2abfcb8d69f6a18820411",
	"6/adaptive": "e8ec945424567c6a5b11f55bd3e6dbc8b4bfbd8313b084c1aa1ce8ad6ee08ac4",
	"7/gemini":   "9856c39d0438754849eef42ac248012fb3bcc6d9db483d2d1ffe3e636eceeedd",
	"7/tiered":   "140bbb94d425bee609d7d044fc4b4ed8886a274e18a97598ea10fe624a6fd9c0",
	"7/sparse":   "f82de4b600339cc95107dec033504cebab1993fa6dea74e35f7cf0e05fc1d970",
	"7/adaptive": "f848feed502a2182981981525c7930f4a6ac1a9cc18b039ed9f21b25df5ce040",
	"8/gemini":   "4257f091fed4462c7806ee9887f111f7b9f18efececead1744b79edaa5a6216d",
	"8/tiered":   "cc303a455e795039ce618f15afab36b2f9cf8d4b9f1bcdbb0460dadfc89c8147",
	"8/sparse":   "b9f5b66d647e6efd977268b2d587df8f58f3f9a56d4e1aab27e3629242613475",
	"8/adaptive": "5e5ccf201a831c43aa94f7c9da09243fc45ac7b361a85739234b5dd87c0d9bd8",
}

// TestGeneratedChaosOutcomesPinned runs 8 generated schedules under the
// four strategies on 16 and on 64 machines and pins every run's full
// outcome rendering (event log, Eq. 1 ledger, traffic and KV event
// stream) by sha256. writeOutcome checks after every event that no rank
// trains on a failed machine. The pins fix results, not event counts,
// so an engine change that fires fewer events must leave them alone.
func TestGeneratedChaosOutcomesPinned(t *testing.T) {
	for _, run := range []struct {
		n    int
		pins map[string]string
	}{{16, generatedPins}, {64, generatedPins64}} {
		n := run.n
		if *updateGolden {
			fmt.Printf("// %d machines\n", n)
		}
		for seed := int64(1); seed <= 8; seed++ {
			sched, desc := generatedSchedule(seed, n)
			sc := outcomeScenario{
				name: fmt.Sprintf("generated-%d", seed), machines: n, spec: testSpec, opts: DefaultOptions(), cloud: cloud.DefaultConfig(),
				horizon: simclock.Time((genHorizon + genTail) * iterTime),
				arm:     func(f *fixture) { f.sys.Arm(sched) },
			}
			if n != 16 {
				sc.name = fmt.Sprintf("generated-%d-%d", n, seed)
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
				if want := run.pins[key]; got != want {
					t.Errorf("%d machines, %s: outcome sha256 %s, want %s; schedule:\n%v", n, key, got, want, desc)
				}
			}
		}
	}
}

// FuzzGeneratedChaos runs generatedSchedule's schedule for any seed on
// 16 machines under the four strategies. writeOutcome checks after every
// event that no rank trains on a failed machine and, at the end, every
// recovery record's invariants; a second run of each must render
// byte-identically.
func FuzzGeneratedChaos(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sched, desc := generatedSchedule(seed, 16)
		sc := outcomeScenario{
			name: fmt.Sprintf("generated-%d", seed), machines: 16, spec: testSpec, opts: DefaultOptions(), cloud: cloud.DefaultConfig(),
			horizon: simclock.Time((genHorizon + genTail) * iterTime),
			arm:     func(f *fixture) { f.sys.Arm(sched) },
		}
		for _, name := range []string{"gemini", "tiered", "sparse", "adaptive"} {
			var first, again bytes.Buffer
			writeOutcome(t, &first, sc, name, nil)
			writeOutcome(t, &again, sc, name, nil)
			if !bytes.Equal(first.Bytes(), again.Bytes()) {
				t.Fatalf("seed %d, %s: a rerun differs; schedule:\n%v", seed, name, desc)
			}
		}
	})
}
