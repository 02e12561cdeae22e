package scenario

import (
	"os"
	"testing"
)

// FuzzParseScenario feeds arbitrary bytes to the YAML subset and the
// binder. Parse must never panic, and any scenario it accepts with at
// most 1,024 machines must Compile without panicking (an error is fine).
func FuzzParseScenario(f *testing.F) {
	for _, path := range []string{"../../examples/scenarios/smoke-1k.yaml", "../../examples/scenarios/chaos-10k.yaml"} {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add([]byte(smallYAML + "fleet:\n  regions:\n    us-east-1: inf\n    us-west-2: 1\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		s, err := Parse(src)
		if err != nil || s.Job.Machines > 1024 {
			return
		}
		_, _ = s.Compile()
	})
}
