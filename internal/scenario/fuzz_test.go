package scenario

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzParseScenario feeds arbitrary bytes to the YAML subset and the
// binder. Parse must never panic, must reject an input with the same
// error every time it parses it, and any scenario it accepts with at
// most 1,024 machines must Compile without panicking (an error is fine).
// Every accepted input must also bind to the same scenario when spelled
// as JSON: its decoded tree, marshalled, must parse to a deeply equal
// Scenario. JSON text cannot spell invalid UTF-8 (json.Marshal replaces
// it), so that check skips such inputs.
func FuzzParseScenario(f *testing.F) {
	for _, path := range []string{"../../examples/scenarios/smoke-1k.yaml", "../../examples/scenarios/chaos-10k.yaml"} {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add([]byte(smallYAML + "fleet:\n  regions:\n    us-east-1: inf\n    us-west-2: 1\n"))
	f.Add([]byte(smallYAML + "fleet:\n  regions:\n    c: z\n    a: inf\n    b: y\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		s, err := Parse(src)
		if err != nil {
			if _, again := Parse(src); again == nil || again.Error() != err.Error() {
				t.Fatalf("second parse of a rejected input: %v, first: %v", again, err)
			}
			return
		}
		if utf8.Valid(src) {
			raw, err := decode(src)
			if err != nil {
				t.Fatalf("Parse accepted input that decode rejects: %v", err)
			}
			js, err := json.Marshal(raw)
			if err != nil {
				t.Fatalf("accepted scenario's tree does not marshal: %v", err)
			}
			back, err := Parse(js)
			if err != nil {
				t.Fatalf("JSON spelling rejected: %v\n%s", err, js)
			}
			if !reflect.DeepEqual(s, back) {
				t.Fatalf("JSON spelling binds differently:\n%+v\n%+v", s, back)
			}
		}
		if s.Job.Machines > 1024 {
			return
		}
		_, _ = s.Compile()
	})
}
