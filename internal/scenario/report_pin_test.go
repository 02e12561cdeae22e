package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The observed report — aggregates and run records included — is pinned
// byte for byte for both checked-in scenarios at one and two workers:
// Report.Hash (the compact encoding) and the sha256 of JSON() (the
// indented one). Any drift in the simulator, the rollups, the record
// fields or the report encoder fails here.
func TestObservedReportPinned(t *testing.T) {
	for _, tc := range []struct {
		path, hash, jsonSum string
	}{
		{"../../examples/scenarios/smoke-1k.yaml", "cda908f930a51d4f07c1332402c7f0e14990c85bf684c7f4d60019961299a452", "bd9c93624dd42dcae85bd8758db69bcfc6b410a3eb947f121961c22ba036ec9c"},
		{"../../examples/scenarios/chaos-10k.yaml", "f00bb3db3330ffc8d57274a18e5489ab10b62f7701a0a1063b4269d3bf86fc8d", "97881ace75e982b0536e9f200ff56cfb894496ec8232c597abfd233620334821"},
	} {
		s, err := Load(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			rep, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: workers, Aggregate: true, RecordRuns: true})
			if err != nil {
				t.Fatal(err)
			}
			js, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			if rep.Hash != tc.hash {
				t.Errorf("%s workers=%d: hash %s, want %s", s.Name, workers, rep.Hash, tc.hash)
			}
			if got := hex.EncodeToString(sum[:]); got != tc.jsonSum {
				t.Errorf("%s workers=%d: JSON sha256 %s, want %s", s.Name, workers, got, tc.jsonSum)
			}
		}
	}
}
