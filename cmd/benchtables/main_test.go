package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"gemini/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ablations.golden")

// TestAblationsGolden is the figure gate: the full `benchtables
// -ablations` text — every paper table and figure plus the design
// studies — must match its checked-in golden byte for byte, so any
// change to a simulated figure shows up as a reviewed golden diff.
// Regenerate with
//
//	go test ./cmd/benchtables -run TestAblationsGolden -update
func TestAblationsGolden(t *testing.T) {
	var out, errw bytes.Buffer
	if render(&out, &errw, append(experiments.All(), experiments.Ablations()...), 0) {
		t.Fatalf("experiments failed:\n%s", errw.String())
	}
	const golden = "testdata/ablations.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	var g, w []byte
	if i < len(gl) {
		g = gl[i]
	}
	if i < len(wl) {
		w = wl[i]
	}
	t.Fatalf("output differs from %s at line %d (run with -update if the move is intended)\ngot:  %q\nwant: %q", golden, i+1, g, w)
}
