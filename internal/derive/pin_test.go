package derive

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/training"
)

// pinKeys are the derivations the benchmark workloads and the paper's
// testbeds resolve: the chaos-10k campaign job, the smoke-1k campaign
// job, the two 16-machine interference testbeds, and one data-parallel
// job.
var pinKeys = []struct {
	name string
	key  Key
}{
	{"chaos-10k", Key{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 10000, Replicas: 2,
		RemoteBandwidth: baselines.DefaultRemoteBandwidth, Parallelism: training.PipelineParallel}},
	{"smoke-1k", Key{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 1000, Replicas: 2,
		RemoteBandwidth: baselines.DefaultRemoteBandwidth, Parallelism: training.ZeRO3}},
	{"interference-p4d", Key{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16, Replicas: 2,
		RemoteBandwidth: baselines.DefaultRemoteBandwidth, Parallelism: training.ZeRO3}},
	{"interference-p3dn", Key{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16, Replicas: 2,
		RemoteBandwidth: baselines.DefaultRemoteBandwidth, Parallelism: training.ZeRO3}},
	{"data-parallel-64", Key{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 64, Replicas: 2,
		RemoteBandwidth: baselines.DefaultRemoteBandwidth, Parallelism: training.DataParallel}},
}

// artifactDigest hashes the Go-syntax rendering of the derived profile,
// plan, timeline ops and the three baseline specs. %#v prints every
// float at full round-trip precision (simclock's String, which %+v
// would use, rounds to two decimals), so any bit change shows.
func artifactDigest(a *Artifacts) string {
	h := sha256.New()
	write := func(v any) { fmt.Fprintf(h, "%#v\n", v) }
	write(a.Profile)
	write(a.Plan)
	for _, op := range a.Timeline.Ops {
		write(op)
	}
	write(a.Gemini)
	write(a.HighFreq)
	write(a.Strawman)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDerivedArtifactsPinned pins everything Build derives for the pin
// keys. Profiling, planning and timeline construction may be rewritten
// for speed, but never so that a derived artifact moves by one bit.
func TestDerivedArtifactsPinned(t *testing.T) {
	want := map[string]string{
		"chaos-10k":         "abcc747dd736d9b718dd729bf327409e7f0f29435fc4d0c244631a101bad16c0",
		"smoke-1k":          "1acb9339df53235e8fdd6bb3cf05305a83fe77aa5718816b10bde1717eb91795",
		"interference-p4d":  "b24e0eac282eb7c7649ecc199a79d8034701261b5d86cc49bdc38f9b168bbf7d",
		"interference-p3dn": "cdfdd6347cda6f18b6f2b3db02a57c147ab0eb046db80ab7f99c9cd8c4f6c814",
		"data-parallel-64":  "d3450ead824e06680f1dd0fc5002fddcc41a1ddccede9d4aee2355bd0bc0aa88",
	}
	for _, pk := range pinKeys {
		t.Run(pk.name, func(t *testing.T) {
			a, err := Build(pk.key)
			if err != nil {
				t.Fatal(err)
			}
			if got := artifactDigest(a); got != want[pk.name] {
				t.Errorf("%s: derived artifacts digest %s, want %s", pk.name, got, want[pk.name])
			}
		})
	}
}
