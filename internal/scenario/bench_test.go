package scenario

import (
	"context"
	"testing"
)

// BenchmarkCampaignSmoke runs the smoke-1k scenario at 1000 variations
// on one worker — schedule generation and the runsim walk with no chaos
// and no observer — so the walk can be profiled directly:
//
//	go test -run='^$' -bench=CampaignSmoke -cpuprofile cpu.out ./internal/scenario
func BenchmarkCampaignSmoke(b *testing.B) {
	s, err := Load("../../examples/scenarios/smoke-1k.yaml")
	if err != nil {
		b.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		b.Fatal(err)
	}
	opts := CampaignOptions{Workers: 1, Variations: 1000}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunCampaign(context.Background(), c, opts); err != nil {
			b.Fatal(err)
		}
	}
}
