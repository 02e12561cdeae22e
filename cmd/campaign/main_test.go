package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gemini/internal/scenario"
)

func compile(t *testing.T, path string) (*scenario.Scenario, *scenario.Compiled) {
	t.Helper()
	s, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// -validate prints the scale model behind the smoke scenario: GPT-2
// 100B under ZeRO-3 on 1000 p4d machines derives a 419.7 s iteration,
// most of it ring-collective startup latency, and GEMINI checkpoints
// every iteration with one iteration of completion lag, and to its
// remote tier every 3 h, complete after the 480 s push.
func TestValidatePrintsScaleModel(t *testing.T) {
	const path = "../../examples/scenarios/smoke-1k.yaml"
	_, c := compile(t, path)
	var out bytes.Buffer
	printValidation(&out, path, c)
	t.Log(out.String())
	for _, want := range []string{
		"iteration: 419.7 s (zero-3, 1000 × p4d.24xlarge), 88.5% ring-collective startup latency\n",
		"GEMINI     checkpoint interval 419.7 s, completion lag 419.7 s\n" +
			"             remote tier interval 10800.0 s, completion lag 480.0 s\n",
		"Strawman   checkpoint interval 10800.0 s, completion lag 480.0 s\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-validate output lacks %q:\n%s", want, out.String())
		}
	}
}

// The JSON report on disk is Report.JSON's bytes and one newline,
// created with mode 0644 (before the umask) like os.WriteFile made it.
func TestWriteReportsJSON(t *testing.T) {
	s, c := compile(t, "../../examples/scenarios/smoke-1k.yaml")
	rep, err := scenario.RunCampaign(context.Background(), c, scenario.CampaignOptions{Variations: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := options{jsonOut: filepath.Join(dir, "r.json"), htmlOut: filepath.Join(dir, "r.html"), quiet: true}
	if err := writeReports(s, rep, o); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(o.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("report file differs from Report.JSON plus a newline:\n%s", got)
	}
	st, err := os.Stat(o.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if extra := st.Mode().Perm() &^ 0o644; extra != 0 {
		t.Fatalf("report file mode %v grants %v beyond 0644", st.Mode().Perm(), extra)
	}
	if _, err := os.Stat(o.htmlOut); err != nil {
		t.Fatal(err)
	}
}
