package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"gemini/internal/scenario"
)

// parseLongRun builds the long-run scenario from command-line args.
func parseLongRun(t *testing.T, args []string) *scenario.Scenario {
	t.Helper()
	fs := flag.NewFlagSet("geminisim", flag.ContinueOnError)
	longRun := longRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return longRun()
}

// The long-run table is pinned for three flag sets; its rows must not
// move when the run construction behind them changes.
func TestLongRunTablePinned(t *testing.T) {
	for _, c := range []struct {
		args     []string
		schedule string
		rows     []string
	}{
		{nil, "failure schedule: 40 failures over 10 days", []string{
			"GEMINI 0.978 8.07m 5.38h 20/20/0",
			"HighFreq 0.804 20.63m 13.75h 0/0/40",
			"Strawman 0.499 2.97h 118.64h 0/0/40",
		}},
		{[]string{"-poisson", "-seed", "3"}, "failure schedule: 30 failures over 10 days", []string{
			"GEMINI 0.983 8.53m 4.12h 16/13/0",
			"HighFreq 0.813 23.27m 11.25h 0/0/29",
			"Strawman 0.750 2.01h 58.27h 0/0/29",
		}},
		{[]string{"-replacement", "5m30s", "-failures-per-day", "6", "-hardware", "1"}, "failure schedule: 60 failures over 10 days", []string{
			"GEMINI 0.943 13.76m 13.76h 0/60/0",
			"HighFreq 0.737 31.21m 31.21h 0/0/60",
			"Strawman 0.744 59.79m 59.79h 0/0/60",
		}},
	} {
		sc := parseLongRun(t, c.args)
		if err := sc.Validate(); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		var buf bytes.Buffer
		if err := writeLongRun(&buf, sc); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		// Blank, schedule, blank, header, then one row per solution.
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) != 4+len(c.rows) {
			t.Fatalf("%v: table\n%s", c.args, buf.String())
		}
		if lines[1] != c.schedule {
			t.Errorf("%v: %q, want %q", c.args, lines[1], c.schedule)
		}
		for i, want := range c.rows {
			if got := strings.Join(strings.Fields(lines[4+i]), " "); got != want {
				t.Errorf("%v: row %d = %q, want %q", c.args, i, got, want)
			}
		}
	}
}

// Bad long-run inputs are rejected by the scenario's checks, naming
// the scenario field.
func TestLongRunRejectsBadInputs(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-days", "-1"}, "horizon must be positive"},
		{[]string{"-days", "4000"}, "horizon 4000d exceeds the limit"},
		{[]string{"-hardware", "2"}, "failures.hardware_fraction"},
		{[]string{"-machines", "0"}, "job.machines"},
	} {
		err := parseLongRun(t, c.args).Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}
