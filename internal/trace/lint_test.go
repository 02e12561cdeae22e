package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The regression corpus under testdata/lint: each file's expected
// findings, in the deterministic order Lint promises.
func TestLintCorpus(t *testing.T) {
	cases := map[string][]LintIssue{
		"clean.json": nil,
		"unmatched_end.json": {
			{Code: "unmatched-end", Pid: 1, Tid: 1, Name: "stray"},
		},
		"unclosed_begin.json": {
			{Code: "unclosed-begin", Pid: 1, Tid: 1, Name: "outer"},
		},
		"orphan_counter.json": {
			{Code: "orphan-counter", Pid: 1, Tid: 7, Name: "wasted"},
		},
		"mixed.json": {
			{Code: "unmatched-end", Pid: 1, Tid: 2, Name: "stray"},
			{Code: "orphan-counter", Pid: 2, Tid: 3, Name: "lost"},
			{Code: "unclosed-begin", Pid: 1, Tid: 1, Name: "b"},
		},
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "lint", name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Lint(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("issues %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("issue %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestLintRejectsInvalidJSON(t *testing.T) {
	if _, err := Lint([]byte("not json")); err == nil {
		t.Fatal("invalid JSON did not error")
	}
}

// Anything WriteJSON emits must lint clean: spans are complete "X"
// events and every lane (including counter-bearing ones) gets
// thread_name metadata.
func TestWriteJSONLintsClean(t *testing.T) {
	tr := NewTracer(nil)
	tk := tr.Track("run", "recovery")
	tk.Span("recovery", "peer", 10, 40)
	tk.Span("recovery", "local", 20, 30) // overlapping: forces a second lane
	tk.InstantArgsAt("failure", "hardware-failed", 10, "")
	tk.SampleAt("wasted_seconds", 40, 120)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	issues, err := Lint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("WriteJSON output has lint issues: %v", issues)
	}
}

func TestLintIssueString(t *testing.T) {
	is := LintIssue{Code: "orphan-counter", Pid: 2, Tid: 3, Name: "lost"}
	if got := is.String(); got != `orphan-counter: pid 2 tid 3 event "lost"` {
		t.Fatalf("String() = %q", got)
	}
}
