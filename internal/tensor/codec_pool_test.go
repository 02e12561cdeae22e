package tensor

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// The encoder's output is pinned byte for byte. These (length, CRC32)
// pairs were captured from the original serial implementation; any drift
// is a wire-format break that would orphan every checkpoint already
// written.
func TestEncodeGoldenBytes(t *testing.T) {
	cases := []struct {
		iter    int64
		shard   int
		size    int64
		seed    int64
		wantLen int
		wantCRC uint32
	}{
		{7, 2, 512, 99, 668, 0x8d2a1fe0},
		{3, 1, 4096, 123, 4256, 0x5ec63c21},
		{0, 0, 0, 0, 164, 0x3479a03f},
	}
	for _, c := range cases {
		s := NewSyntheticState(c.iter, c.shard, c.size, c.seed)
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != c.wantLen {
			t.Errorf("state(%d,%d,%d,%d): encoded %d bytes, want %d",
				c.iter, c.shard, c.size, c.seed, buf.Len(), c.wantLen)
		}
		if got := crc32.ChecksumIEEE(buf.Bytes()); got != c.wantCRC {
			t.Errorf("state(%d,%d,%d,%d): encoding crc %08x, want %08x",
				c.iter, c.shard, c.size, c.seed, got, c.wantCRC)
		}
	}
}

// Repeated encodes must be stable: same bytes every time, including when
// interleaved with decodes that reuse the pooled decoder.
func TestEncodePooledStability(t *testing.T) {
	big := NewSyntheticState(5, 3, 1<<16, 7)
	small := NewSyntheticState(6, 1, 256, 8)
	var want bytes.Buffer
	if err := Encode(&want, big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, small); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := Encode(&buf, big); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want.Bytes()) {
			t.Fatalf("iteration %d: pooled encode drifted", i)
		}
	}
}

// The codec's allocation contract. The original codec measured 20
// allocs/op for Encode and 43 for Decode (63 per round trip) on this
// state shape; the codec must stay at least 5× below that.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping inflates allocation counts")
	}
	s := NewSyntheticState(1, 0, 48<<10, 42)
	var buf bytes.Buffer
	buf.Grow(int(EncodedSize(s)))

	encAllocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := Encode(&buf, s); err != nil {
			t.Fatal(err)
		}
	})
	// Old encoder: 20 allocs/op. 5× reduction bound: 4.
	if encAllocs > 4 {
		t.Errorf("Encode allocates %.1f times per op, want ≤ 4 (old codec: 20)", encAllocs)
	}

	raw := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(raw)
	rtAllocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := Encode(&buf, s); err != nil {
			t.Fatal(err)
		}
		rd.Reset(raw)
		if _, err := Decode(rd); err != nil {
			t.Fatal(err)
		}
	})
	// Old codec: 63 allocs per round trip. 5× reduction bound: 12.
	if rtAllocs > 12 {
		t.Errorf("round trip allocates %.1f times per op, want ≤ 12 (old codec: 63)", rtAllocs)
	}
}

func BenchmarkRoundTrip(b *testing.B) {
	s := NewSyntheticState(1, 0, 1<<20, 42)
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	rd := bytes.NewReader(raw)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		if _, err := Decode(rd); err != nil {
			b.Fatal(err)
		}
	}
}
