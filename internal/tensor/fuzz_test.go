package tensor

import (
	"bytes"
	"testing"
)

// FuzzDecode hardens the checkpoint codec against arbitrary input: a
// decoder crash on corrupted bytes would take down recovery exactly when
// it is needed. Decode must either return an error or a state that
// re-encodes cleanly.
func FuzzDecode(f *testing.F) {
	// Seed corpus: a valid encoding, truncations, and flipped bytes.
	s := NewSyntheticState(7, 2, 512, 99)
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("GEMCKPT1 but then garbage"))
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[10] ^= 0xFF
	f.Add(flipped)

	// Corpus for the decoder's checksum paths: footers truncated
	// mid-u32 (the incremental body CRC must report corruption, not
	// misread), a corrupted per-tensor CRC field (last tensor's stored
	// checksum sits in the 4 bytes before the footer), and a zeroed
	// footer with intact tensors (body-CRC mismatch after every
	// per-tensor check passed).
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(valid)-4])
	badTensorCRC := append([]byte(nil), valid...)
	badTensorCRC[len(badTensorCRC)-8] ^= 0x01
	f.Add(badTensorCRC)
	badFooter := append([]byte(nil), valid...)
	for i := len(badFooter) - 4; i < len(badFooter); i++ {
		badFooter[i] = 0
	}
	f.Add(badFooter)
	// Data flipped with the per-tensor CRC left stale: the concurrent
	// verify pass must catch it before the footer check runs.
	badData := append([]byte(nil), valid...)
	badData[len(badData)/3] ^= 0x80
	f.Add(badData)

	f.Fuzz(func(t *testing.T, data []byte) {
		state, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the decoder accepts must be internally valid and
		// re-encodable.
		if err := state.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid state: %v", err)
		}
		var out bytes.Buffer
		if err := Encode(&out, state); err != nil {
			t.Fatalf("accepted state failed to re-encode: %v", err)
		}
		again, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-encoded state failed to decode: %v", err)
		}
		if !state.Equal(again) {
			t.Fatal("re-encode round trip changed the state")
		}
	})
}

func BenchmarkEncode(b *testing.B) {
	s := NewSyntheticState(1, 0, 1<<20, 42) // 1 MiB shard
	var buf bytes.Buffer
	b.SetBytes(EncodedSize(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	s := NewSyntheticState(1, 0, 1<<20, 42)
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	s := NewSyntheticState(1, 0, 1<<20, 42)
	b.SetBytes(EncodedSize(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Fingerprint()
	}
}
