package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// validProm is a well-formed exposition: one counter and one histogram
// with increasing bounds, cumulative counts and +Inf equal to _count.
const validProm = `# HELP runs_total Runs finished.
# TYPE runs_total counter
runs_total 5
# TYPE lat histogram
lat_bucket{le="1"} 2
lat_bucket{le="2"} 5
lat_bucket{le="+Inf"} 5
lat_sum 7.5
lat_count 5
`

var checkCases = []struct {
	name string
	prom string // checked with checkProm when set
	csv  string // checked with checkCSV otherwise
	want string // substring of the error; "" means the input is valid
}{
	{name: "valid histogram", prom: validProm},
	{
		name: "count falls behind a NaN bucket",
		prom: `# TYPE lat histogram
lat_bucket{le="1"} 5
lat_bucket{le="2"} NaN
lat_bucket{le="3"} 3
lat_bucket{le="+Inf"} 3
lat_sum 1
lat_count 3
`,
		want: "bucket count NaN below previous 5",
	},
	{
		name: "bounds fall behind a NaN bound",
		prom: `# TYPE lat histogram
lat_bucket{le="1"} 1
lat_bucket{le="NaN"} 2
lat_bucket{le="0.5"} 3
lat_bucket{le="+Inf"} 3
lat_sum 1
lat_count 3
`,
		want: "le bound NaN not above previous 1",
	},
	{
		name: "first broken family in declaration order",
		prom: `# TYPE a histogram
a_bucket{le="1"} 1
a_sum 1
a_count 1
# TYPE b histogram
b_bucket{le="1"} 1
b_sum 1
b_count 1
`,
		want: "histogram a: last bucket",
	},
	{name: "valid timeline", csv: "time,a\n1,0\n2,0\n"},
	{
		name: "time falls behind a NaN time",
		csv:  "time,a\n1,0\nNaN,0\n0.5,0\n",
		want: "time NaN not after 1",
	},
}

func TestCheckRejectsBrokenOrder(t *testing.T) {
	for _, tc := range checkCases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.prom != "" {
				_, err = checkProm(strings.NewReader(tc.prom), 1)
			} else {
				_, err = checkCSV(strings.NewReader(tc.csv), 1)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid input rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// FuzzCheckProm feeds arbitrary bytes to the exposition parser: it must
// never panic, and checking the same bytes twice must give the same
// summary and the same error.
func FuzzCheckProm(f *testing.F) {
	for _, tc := range checkCases {
		if tc.prom != "" {
			f.Add([]byte(tc.prom))
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		sum1, err1 := checkProm(bytes.NewReader(src), 1)
		sum2, err2 := checkProm(bytes.NewReader(src), 1)
		if sum1 != sum2 || fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("two checks disagree: (%q, %v) then (%q, %v)", sum1, err1, sum2, err2)
		}
	})
}
