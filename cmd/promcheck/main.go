// Command promcheck validates the run health monitor's two export
// formats: a Prometheus text-exposition file (-prom) and a sampled
// sim-time timeline CSV (-csv). Beyond line syntax it enforces the
// histogram exposition contract — strictly increasing le bounds ending
// at +Inf, cumulative bucket counts, +Inf bucket equal to _count — for
// every family declared `# TYPE ... histogram`. ci.sh runs it against
// the geminisim -metrics/-timeline smoke outputs and the aggregated
// campaign exposition so a refactor that breaks the exposition syntax
// or stops the recorder sampling fails the build instead of shipping an
// unscrapeable endpoint or an empty timeline.
//
// Usage:
//
//	promcheck -prom out.prom -min-families 5 -csv out.csv -min-rows 10
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

var (
	// Metric names per the Prometheus data model; label matching below is
	// deliberately loose — we validate our own exporter, not arbitrary input.
	nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

func main() {
	promPath := flag.String("prom", "", "Prometheus text-exposition file to validate")
	minFamilies := flag.Int("min-families", 1, "minimum # TYPE metric families required in -prom")
	csvPath := flag.String("csv", "", "timeline CSV file to validate")
	minRows := flag.Int("min-rows", 1, "minimum data rows required in -csv")
	flag.Parse()
	if *promPath == "" && *csvPath == "" {
		fmt.Fprintln(os.Stderr, "usage: promcheck [-prom file [-min-families n]] [-csv file [-min-rows n]]")
		os.Exit(2)
	}
	if *promPath != "" {
		checkFile(*promPath, func(r io.Reader) (string, error) { return checkProm(r, *minFamilies) })
	}
	if *csvPath != "" {
		checkFile(*csvPath, func(r io.Reader) (string, error) { return checkCSV(r, *minRows) })
	}
}

// checkFile runs check over the file at path and prints its summary, or
// exits 1 naming the file when it cannot be read or fails the check.
func checkFile(path string, check func(io.Reader) (string, error)) {
	f, err := os.Open(path)
	var summary string
	if err == nil {
		summary, err = check(f)
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "promcheck: %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %s\n", path, summary)
}

// sample is one parsed exposition line, kept for the post-pass
// histogram checks.
type sample struct {
	name   string
	labels string // raw {...} block, may be empty
	value  float64
	line   int
}

// checkProm enforces the exposition-format shape our exporter promises:
// every non-comment line is `name[{labels}] value` with a parseable
// float, every # TYPE names a valid family with a known kind, at least
// minFamilies families appear, and every histogram family is internally
// consistent (see checkHistogram). Families are checked in declaration
// order, so the same bytes always get the same verdict.
func checkProm(r io.Reader, minFamilies int) (string, error) {
	families := map[string]string{}
	var (
		declared []string
		samples  []sample
	)
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, "# TYPE "):
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return "", fmt.Errorf("line %d: malformed TYPE comment %q", line, text)
			}
			name, kind := fields[2], fields[3]
			if !nameRe.MatchString(name) {
				return "", fmt.Errorf("line %d: invalid family name %q", line, name)
			}
			switch kind {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				return "", fmt.Errorf("line %d: unknown family kind %q", line, kind)
			}
			if prev, dup := families[name]; dup {
				return "", fmt.Errorf("line %d: family %q declared twice (%s, %s)", line, name, prev, kind)
			}
			families[name] = kind
			declared = append(declared, name)
		case strings.HasPrefix(text, "#"):
			continue // HELP or free comment
		default:
			m := sampleRe.FindStringSubmatch(text)
			if m == nil {
				return "", fmt.Errorf("line %d: malformed sample %q", line, text)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return "", fmt.Errorf("line %d: sample %s has non-float value %q", line, m[1], m[3])
			}
			samples = append(samples, sample{name: m[1], labels: m[2], value: v, line: line})
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if len(samples) == 0 {
		return "", fmt.Errorf("no samples")
	}
	if len(families) < minFamilies {
		return "", fmt.Errorf("%d metric families, want ≥ %d", len(families), minFamilies)
	}
	histograms := 0
	for _, name := range declared {
		if families[name] != "histogram" {
			continue
		}
		histograms++
		if err := checkHistogram(name, samples); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%d families (%d histograms), %d samples", len(families), histograms, len(samples)), nil
}

// leValue extracts the le label from a _bucket sample's label block.
// +Inf maps to math.Inf(1), which makes the ordering check uniform.
func leValue(labels string) (float64, error) {
	const key = `le="`
	i := strings.Index(labels, key)
	if i < 0 {
		return 0, fmt.Errorf("no le label in %q", labels)
	}
	rest := labels[i+len(key):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return 0, fmt.Errorf("unterminated le label in %q", labels)
	}
	if rest[:j] == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(rest[:j], 64)
}

// checkHistogram enforces the histogram exposition contract for one
// family: at least one _bucket sample plus _sum and _count series,
// strictly increasing le bounds ending at +Inf, cumulative
// (monotonically non-decreasing) bucket counts, and a +Inf bucket that
// equals _count — the invariant scrapers rely on to compute quantiles.
// The ordering checks are negated comparisons, so a NaN bound or count
// fails them instead of slipping through.
func checkHistogram(name string, samples []sample) error {
	var (
		prevLE    = math.Inf(-1)
		lastLE    float64
		prevCount = -1.0
		infCount  = -1.0
		buckets   int
		count     = -1.0
		hasSum    bool
	)
	for _, s := range samples {
		switch s.name {
		case name + "_bucket":
			le, err := leValue(s.labels)
			if err != nil {
				return fmt.Errorf("line %d: histogram %s: %v", s.line, name, err)
			}
			if !(le > prevLE) {
				return fmt.Errorf("line %d: histogram %s: le bound %v not above previous %v", s.line, name, le, prevLE)
			}
			if !(s.value >= prevCount) {
				return fmt.Errorf("line %d: histogram %s: bucket count %v below previous %v (buckets must be cumulative)",
					s.line, name, s.value, prevCount)
			}
			prevLE, prevCount, lastLE = le, s.value, le
			if math.IsInf(le, 1) {
				infCount = s.value
			}
			buckets++
		case name + "_sum":
			hasSum = true
		case name + "_count":
			count = s.value
		}
	}
	switch {
	case buckets == 0:
		return fmt.Errorf("histogram %s: no _bucket samples", name)
	case !math.IsInf(lastLE, 1):
		return fmt.Errorf("histogram %s: last bucket le=%v, want +Inf", name, lastLE)
	case !hasSum:
		return fmt.Errorf("histogram %s: missing _sum", name)
	case count < 0:
		return fmt.Errorf("histogram %s: missing _count", name)
	case infCount != count:
		return fmt.Errorf("histogram %s: +Inf bucket %v != _count %v", name, infCount, count)
	}
	return nil
}

// checkCSV enforces the recorder timeline's shape: a header whose first
// column is "time", uniform column counts, all-float cells, strictly
// increasing time (a NaN time fails it), and at least minRows data rows.
func checkCSV(r io.Reader, minRows int) (string, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return "", fmt.Errorf("empty file")
	}
	header := strings.Split(sc.Text(), ",")
	if header[0] != "time" {
		return "", fmt.Errorf("header starts with %q, want \"time\"", header[0])
	}
	if len(header) < 2 {
		return "", fmt.Errorf("header has no watched columns")
	}
	rows := 0
	prev := -1.0
	for line := 2; sc.Scan(); line++ {
		cells := strings.Split(sc.Text(), ",")
		if len(cells) != len(header) {
			return "", fmt.Errorf("line %d: %d columns, header has %d", line, len(cells), len(header))
		}
		for i, cell := range cells {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return "", fmt.Errorf("line %d: column %q has non-float cell %q", line, header[i], cell)
			}
			if i == 0 {
				if !(v > prev) {
					return "", fmt.Errorf("line %d: time %v not after %v", line, v, prev)
				}
				prev = v
			}
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if rows < minRows {
		return "", fmt.Errorf("%d data rows, want ≥ %d", rows, minRows)
	}
	return fmt.Sprintf("%d columns, %d rows", len(header), rows), nil
}
