package scenario

// The report encoder. An observed campaign encodes its report three
// times — compactly to seal Report.Hash, again whenever the hash is
// verified, and indented for disk — and with run records the report is
// about a megabyte. encoding/json would marshal it by reflection, and
// MarshalIndent would then re-scan the output to indent it. encode
// writes the fixed schema field by field in one pass, producing exactly
// the bytes of json.Marshal or json.MarshalIndent(r, "", "  ");
// encode_test.go holds it to encoding/json on every field, edge value
// and fuzz input.
//
// The run records, nearly all of those bytes, are encoded in chunks of
// runChunk across workers. A record's bytes depend only on its nesting
// depth and on whether it is the array's first member, so each chunk
// can be written on its own and the chunks joined in order give the
// serial bytes at any worker count.

import (
	"crypto/sha256"
	"encoding/json"
	"hash"
	"math"
	"reflect"
	"strconv"
	"sync"

	"gemini/internal/parallel"
)

// runChunk is how many run records one chunk of the encoding holds.
const runChunk = 256

// encoding is a report's JSON in document order: head (every member
// before the run records), one buffer per chunk of run records, and
// tail (the runs array's close, the hash and the report's close).
// Encodings and their buffers are pooled: a report with run records is
// around a megabyte, and growing it from nil on every call would
// allocate several times that.
type encoding struct {
	head, tail []byte
	// chunks and errs hold chunk i's bytes and first error at i, for
	// i < n; buffers past n are kept for reuse.
	chunks [][]byte
	errs   []error
	n      int

	// The records being encoded and the encoder state each chunk starts
	// from, set for one encode.
	runs   []RunRecord
	indent bool
	depth  int
	// encodeChunk bound once, so encode hands parallel.ForEach no fresh
	// closure.
	chunk func(i int)

	// The hasher and digest buffer digest reuses.
	sha hash.Hash
	sum []byte
}

var encodings = sync.Pool{New: func() any {
	enc := &encoding{sha: sha256.New()}
	enc.chunk = enc.encodeChunk
	return enc
}}

// encode encodes the report — json.Marshal's bytes, or
// json.MarshalIndent's with a two-space indent — with hashField in
// place of r.Hash, its run records in chunks spread over workers
// (≤ 0 means parallel.Workers()). Like json.Marshal it fails on NaN and
// infinite floats, with the first error in document order. The caller
// releases the encoding once done with its bytes.
func (r *Report) encode(workers int, indent bool, hashField string) (*encoding, error) {
	enc := encodings.Get().(*encoding)
	e := encoder{b: enc.head[:0], indent: indent}
	e.open('{')
	e.key("scenario")
	e.string(r.Scenario)
	if r.Description != "" {
		e.key("description")
		e.string(r.Description)
	}
	e.key("seed")
	e.int(r.Seed)
	e.key("variations")
	e.int(int64(r.Variations))
	e.key("model")
	e.string(r.Model)
	e.key("instance")
	e.string(r.Instance)
	e.key("machines")
	e.int(int64(r.Machines))
	e.key("replicas")
	e.int(int64(r.Replicas))
	e.key("horizon_days")
	e.float(r.HorizonDays)
	e.key("failures_per_day")
	e.float(r.FailuresPerDay)
	e.key("chaos_events")
	e.int(int64(r.ChaosEvents))
	e.key("specs")
	if r.Specs == nil {
		e.null()
	} else {
		e.open('[')
		for i := range r.Specs {
			e.member()
			e.specReport(&r.Specs[i])
		}
		e.close(']')
	}
	if a := r.Aggregates; a != nil {
		e.key("aggregates")
		e.open('{')
		e.key("campaign")
		e.rows(a.Campaign)
		e.key("specs")
		if a.Specs == nil {
			e.null()
		} else {
			e.open('[')
			for i := range a.Specs {
				e.member()
				e.open('{')
				e.key("name")
				e.string(a.Specs[i].Name)
				e.key("rows")
				e.rows(a.Specs[i].Rows)
				e.close('}')
			}
			e.close(']')
		}
		e.close('}')
	}
	if len(r.Runs) > 0 {
		e.key("runs")
		e.open('[')
	}
	enc.head = e.b
	err := e.err

	enc.n = (len(r.Runs) + runChunk - 1) / runChunk
	for len(enc.chunks) < enc.n {
		enc.chunks = append(enc.chunks, nil)
		enc.errs = append(enc.errs, nil)
	}
	enc.runs, enc.indent, enc.depth = r.Runs, indent, e.depth
	parallel.ForEach(workers, enc.n, enc.chunk)
	enc.runs = nil
	for i := 0; err == nil && i < enc.n; i++ {
		err = enc.errs[i]
	}
	clear(enc.errs)

	// The tail continues the head's encoder: the runs array, if any,
	// has members.
	e.b, e.first = enc.tail[:0], false
	if len(r.Runs) > 0 {
		e.close(']')
	}
	e.key("hash")
	e.string(hashField)
	e.close('}')
	enc.tail = e.b
	if err == nil {
		err = e.err
	}
	if err != nil {
		enc.release()
		return nil, err
	}
	return enc, nil
}

// encodeChunk writes chunk i of the run records into its buffer.
func (enc *encoding) encodeChunk(i int) {
	runs := enc.runs[i*runChunk : min((i+1)*runChunk, len(enc.runs))]
	e := encoder{b: enc.chunks[i][:0], indent: enc.indent, depth: enc.depth, first: i == 0}
	for j := range runs {
		e.member()
		e.runRecord(&runs[j])
	}
	enc.chunks[i], enc.errs[i] = e.b, e.err
}

// size is the encoding's length in bytes.
func (enc *encoding) size() int {
	n := len(enc.head) + len(enc.tail)
	for _, c := range enc.chunks[:enc.n] {
		n += len(c)
	}
	return n
}

// appendTo appends the encoding to dst.
func (enc *encoding) appendTo(dst []byte) []byte {
	dst = append(dst, enc.head...)
	for _, c := range enc.chunks[:enc.n] {
		dst = append(dst, c...)
	}
	return append(dst, enc.tail...)
}

// digest returns the encoding's SHA-256, fed part by part rather than
// copied into one buffer first. The digest lives in the encoding until
// it is released.
func (enc *encoding) digest() []byte {
	// A hash.Hash's Write never returns an error.
	enc.sha.Reset()
	enc.sha.Write(enc.head)
	for _, c := range enc.chunks[:enc.n] {
		enc.sha.Write(c)
	}
	enc.sha.Write(enc.tail)
	enc.sum = enc.sha.Sum(enc.sum[:0])
	return enc.sum
}

// release returns the encoding and its buffers to the pool.
func (enc *encoding) release() { encodings.Put(enc) }

func (e *encoder) specReport(s *SpecReport) {
	e.open('{')
	e.key("name")
	e.string(s.Name)
	e.key("effective_ratio")
	e.stats(&s.EffectiveRatio)
	e.key("wasted_hours")
	e.stats(&s.WastedHours)
	e.key("failures")
	e.int(int64(s.Failures))
	e.key("from_local")
	e.int(int64(s.FromLocal))
	e.key("from_peer")
	e.int(int64(s.FromPeer))
	e.key("from_remote")
	e.int(int64(s.FromRemote))
	e.key("in_memory_fraction")
	e.float(s.InMemoryFraction)
	e.close('}')
}

func (e *encoder) stats(s *Stats) {
	e.open('{')
	e.key("mean")
	e.float(s.Mean)
	e.key("min")
	e.float(s.Min)
	e.key("max")
	e.float(s.Max)
	e.key("p50")
	e.float(s.P50)
	e.key("p90")
	e.float(s.P90)
	e.key("p99")
	e.float(s.P99)
	e.key("stddev")
	e.float(s.StdDev)
	e.close('}')
}

func (e *encoder) rows(rows []AggregateRow) {
	if rows == nil {
		e.null()
		return
	}
	e.open('[')
	for i := range rows {
		row := &rows[i]
		e.member()
		e.open('{')
		e.key("name")
		e.string(row.Name)
		e.key("kind")
		e.string(row.Kind)
		e.floatOmitEmpty("value", row.Value)
		if row.Count != 0 {
			e.key("count")
			e.b = strconv.AppendUint(e.b, row.Count, 10)
		}
		e.floatOmitEmpty("mean", row.Mean)
		e.floatOmitEmpty("p50", row.P50)
		e.floatOmitEmpty("p99", row.P99)
		e.floatOmitEmpty("max", row.Max)
		e.floatOmitEmpty("sum", row.Sum)
		e.close('}')
	}
	e.close(']')
}

func (e *encoder) runRecord(r *RunRecord) {
	e.open('{')
	e.key("variation")
	e.int(int64(r.Variation))
	e.key("spec")
	e.string(r.Spec)
	e.key("effective_ratio")
	e.float(r.EffectiveRatio)
	e.key("wasted_seconds")
	e.float(r.WastedSeconds)
	e.key("lost_seconds")
	e.float(r.LostSeconds)
	e.key("downtime_seconds")
	e.float(r.DowntimeSeconds)
	e.key("stall_seconds")
	e.float(r.StallSeconds)
	e.key("failures")
	e.int(int64(r.Failures))
	e.key("from_local")
	e.int(int64(r.FromLocal))
	e.key("from_peer")
	e.int(int64(r.FromPeer))
	e.key("from_remote")
	e.int(int64(r.FromRemote))
	e.close('}')
}

// encoder appends JSON tokens with encoding/json's layout: compact, or
// MarshalIndent's (each member on its own line at two spaces per depth,
// a space after the colon, and empty containers left as {} or []).
type encoder struct {
	b      []byte
	indent bool
	depth  int
	// first is set right after an opening bracket, until its first
	// member is written.
	first bool
	err   error
}

func (e *encoder) newline() {
	if e.indent {
		e.b = append(e.b, '\n')
		for range e.depth {
			e.b = append(e.b, ' ', ' ')
		}
	}
}

// member starts the next member or element of the open object or
// array.
func (e *encoder) member() {
	if !e.first {
		e.b = append(e.b, ',')
	}
	e.first = false
	e.newline()
}

// open and close write an object's or array's brackets.
func (e *encoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.first = true
}

func (e *encoder) close(c byte) {
	e.depth--
	if !e.first {
		e.newline()
	}
	e.first = false
	e.b = append(e.b, c)
}

func (e *encoder) null() { e.b = append(e.b, "null"...) }

// key starts an object member; name is a plain ASCII field tag.
func (e *encoder) key(name string) {
	e.member()
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// float follows encoding/json: shortest 'f' formatting, switching to
// 'e' (with a one-digit negative exponent trimmed of its zero) below
// 1e-6 or from 1e21 in magnitude; NaN and ±Inf are errors.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		e.b = append(e.b, "null"...)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// floatOmitEmpty writes an omitempty float member: zero (−0 included)
// is omitted.
func (e *encoder) floatOmitEmpty(name string, f float64) {
	if f != 0 {
		e.key(name)
		e.float(f)
	}
}

// string writes s quoted. Plain printable ASCII needs no escaping; any
// other string goes through json.Marshal, so HTML escaping, control
// characters, U+2028/2029 and invalid UTF-8 come out exactly as
// encoding/json writes them.
func (e *encoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil && e.err == nil {
				e.err = err
			}
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
