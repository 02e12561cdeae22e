package tensor

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"sync"
)

// Binary checkpoint format, the stand-in for torch.save/torch.load:
//
//	magic   [8]byte  "GEMCKPT1"
//	iter    int64
//	shard   int64
//	ntensor uint32
//	tensors:
//	  nameLen uint16, name, dtype uint8, ndim uint8, dims []int64,
//	  dataLen uint64, data, crc32c(data) uint32
//	footer  crc32c of everything after the magic, uint32
//
// Every length is validated against hard limits during decode so that a
// truncated or corrupted checkpoint is detected rather than misread —
// GEMINI must never resume training from a half-written checkpoint.
//
// The encoder writes each tensor's header and data straight to w, so the
// payload is copied once, and folds the footer CRC as it goes. Decodes
// reuse pooled readers and scratch state. The wire format is pinned by
// TestEncodeGoldenBytes.

var magic = [8]byte{'G', 'E', 'M', 'C', 'K', 'P', 'T', '1'}

const (
	maxTensors    = 1 << 20
	maxNameLen    = 1 << 12
	maxDims       = 16
	maxTensorData = int64(1) << 40

	// readBufSize is the decoder's bufio buffer size.
	readBufSize = 1 << 16
	// maxHeaderLen bounds one tensor's header: name length, name, dtype,
	// ndim, dims and data length.
	maxHeaderLen = 2 + maxNameLen + 2 + 8*maxDims + 8
)

// ErrCorrupt is wrapped by all decode failures caused by damaged input.
var ErrCorrupt = errors.New("tensor: corrupt checkpoint")

// drained is the placeholder source pooled readers are parked on so they
// never retain a caller's reader.
var drained = strings.NewReader("")

// checkEncodeLimits rejects states the wire format cannot represent,
// before a single byte is written.
func checkEncodeLimits(s *State) error {
	for i := range s.Tensors {
		t := &s.Tensors[i]
		if len(t.Name) > maxNameLen {
			return fmt.Errorf("tensor: name %q exceeds %d bytes", t.Name[:32], maxNameLen)
		}
		if len(t.Shape) > maxDims {
			return fmt.Errorf("tensor: %s has %d dims, max %d", t.Name, len(t.Shape), maxDims)
		}
	}
	return nil
}

// Encode serializes the state to w. The state is validated in full
// before the first byte is written, so a partial encoding reaches w only
// when w.Write itself fails.
func Encode(w io.Writer, s *State) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := checkEncodeLimits(s); err != nil {
		return err
	}
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	e := &encoder{w: w}
	h := binary.LittleEndian.AppendUint64(e.hdr[:0], uint64(s.Iteration))
	h = binary.LittleEndian.AppendUint64(h, uint64(s.Shard))
	e.write(binary.LittleEndian.AppendUint32(h, uint32(len(s.Tensors))))
	for i := range s.Tensors {
		t := &s.Tensors[i]
		h := binary.LittleEndian.AppendUint16(e.hdr[:0], uint16(len(t.Name)))
		h = append(h, t.Name...)
		h = append(h, byte(t.DType), byte(len(t.Shape)))
		for _, d := range t.Shape {
			h = binary.LittleEndian.AppendUint64(h, uint64(d))
		}
		e.write(binary.LittleEndian.AppendUint64(h, uint64(len(t.Data))))
		e.write(t.Data)
		e.write(binary.LittleEndian.AppendUint32(e.hdr[:0], crc32.Checksum(t.Data, castagnoli)))
	}
	if e.err != nil {
		return e.err
	}
	// Footer: CRC of everything after the magic, per-tensor CRCs included.
	_, err := w.Write(binary.LittleEndian.AppendUint32(e.hdr[:0], e.crc))
	return err
}

// encoder writes to w, folding every byte into a running CRC32C. The
// first write error sticks and turns later writes into no-ops.
type encoder struct {
	w   io.Writer
	crc uint32
	err error
	hdr [maxHeaderLen]byte
}

func (e *encoder) write(p []byte) {
	if e.err == nil {
		e.crc = crc32.Update(e.crc, castagnoli, p)
		_, e.err = e.w.Write(p)
	}
}

// decoder bundles every piece of decode scratch state — the buffered
// reader, fixed-size read buffers, and the per-tensor CRC and mismatch
// slices — into one pooled object, so a steady-state Decode allocates
// nothing beyond the tensors it returns.
type decoder struct {
	br      *bufio.Reader
	scratch [8]byte
	nameBuf [maxNameLen]byte
	crcs    []uint32
}

var decoderPool = sync.Pool{New: func() any {
	return &decoder{br: bufio.NewReaderSize(drained, readBufSize)}
}}

func (d *decoder) readU64() (uint64, error) {
	if _, err := io.ReadFull(d.br, d.scratch[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(d.scratch[:8]), nil
}

func (d *decoder) readU32() (uint32, error) {
	if _, err := io.ReadFull(d.br, d.scratch[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(d.scratch[:4]), nil
}

func (d *decoder) readU16() (uint16, error) {
	if _, err := io.ReadFull(d.br, d.scratch[:2]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(d.scratch[:2]), nil
}

// Decode reads a state from r, verifying all checksums. All scratch
// state — the buffered reader, read buffers, CRC bookkeeping — comes
// from a pooled decoder.
func Decode(r io.Reader) (*State, error) {
	d := decoderPool.Get().(*decoder)
	d.br.Reset(r)
	s, err := d.decodeAll()
	d.br.Reset(drained)
	d.crcs = d.crcs[:0]
	decoderPool.Put(d)
	return s, err
}

// decodeAll parses the magic and everything after it.
func (d *decoder) decodeAll() (*State, error) {
	br := d.br
	if _, err := io.ReadFull(br, d.scratch[:8]); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrCorrupt, err)
	}
	if d.scratch != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, d.scratch[:8])
	}
	// body is the running CRC32C of the raw bytes between the magic and
	// the footer, folded in as each field is read — the exact bytes the
	// encoder hashed, with no re-serialization pass at the end.
	body := uint32(0)
	iter, err := d.readU64()
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	body = crc32.Update(body, castagnoli, d.scratch[:8])
	shard, err := d.readU64()
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	body = crc32.Update(body, castagnoli, d.scratch[:8])
	n, err := d.readU32()
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	body = crc32.Update(body, castagnoli, d.scratch[:4])
	if n > maxTensors {
		return nil, fmt.Errorf("%w: %d tensors exceeds limit", ErrCorrupt, n)
	}
	d.crcs = d.crcs[:0]
	s := &State{Iteration: int64(iter), Shard: int(shard), Tensors: make([]Tensor, 0, n)}
	for i := uint32(0); i < n; i++ {
		nameLen, err := d.readU16()
		if err != nil {
			return nil, fmt.Errorf("%w: tensor %d: %v", ErrCorrupt, i, err)
		}
		body = crc32.Update(body, castagnoli, d.scratch[:2])
		if int(nameLen) > maxNameLen {
			return nil, fmt.Errorf("%w: tensor %d name length %d", ErrCorrupt, i, nameLen)
		}
		if _, err := io.ReadFull(br, d.nameBuf[:nameLen]); err != nil {
			return nil, fmt.Errorf("%w: tensor %d name: %v", ErrCorrupt, i, err)
		}
		body = crc32.Update(body, castagnoli, d.nameBuf[:nameLen])
		dtypeB, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: tensor %d dtype: %v", ErrCorrupt, i, err)
		}
		if DType(dtypeB) > INT64 {
			return nil, fmt.Errorf("%w: tensor %d bad dtype %d", ErrCorrupt, i, dtypeB)
		}
		ndim, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: tensor %d ndim: %v", ErrCorrupt, i, err)
		}
		if int(ndim) > maxDims {
			return nil, fmt.Errorf("%w: tensor %d has %d dims", ErrCorrupt, i, ndim)
		}
		d.scratch[0], d.scratch[1] = dtypeB, ndim
		body = crc32.Update(body, castagnoli, d.scratch[:2])
		shape := make([]int64, ndim)
		for j := range shape {
			dim, err := d.readU64()
			if err != nil {
				return nil, fmt.Errorf("%w: tensor %d shape: %v", ErrCorrupt, i, err)
			}
			body = crc32.Update(body, castagnoli, d.scratch[:8])
			if dim > math.MaxInt64 {
				return nil, fmt.Errorf("%w: tensor %d dimension overflow", ErrCorrupt, i)
			}
			shape[j] = int64(dim)
		}
		dataLen, err := d.readU64()
		if err != nil {
			return nil, fmt.Errorf("%w: tensor %d data length: %v", ErrCorrupt, i, err)
		}
		body = crc32.Update(body, castagnoli, d.scratch[:8])
		// Unsigned comparison: a corrupt dataLen ≥ 2^63 must not wrap
		// negative and slip past the limit (it did before this codec).
		if dataLen > uint64(maxTensorData) {
			return nil, fmt.Errorf("%w: tensor %d data length %d exceeds limit", ErrCorrupt, i, dataLen)
		}
		data, err := readData(br, dataLen)
		if err != nil {
			return nil, fmt.Errorf("%w: tensor %d data: %v", ErrCorrupt, i, err)
		}
		body = crc32.Update(body, castagnoli, data)
		crc, err := d.readU32()
		if err != nil {
			return nil, fmt.Errorf("%w: tensor %d crc: %v", ErrCorrupt, i, err)
		}
		body = crc32.Update(body, castagnoli, d.scratch[:4])
		d.crcs = append(d.crcs, crc)
		t := Tensor{Name: string(d.nameBuf[:nameLen]), DType: DType(dtypeB), Shape: shape, Data: data}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		s.Tensors = append(s.Tensors, t)
	}
	if bad := d.verifyChecksums(s); bad >= 0 {
		t := &s.Tensors[bad]
		return nil, fmt.Errorf("%w: tensor %q crc mismatch %08x != %08x",
			ErrCorrupt, t.Name, t.Checksum(), d.crcs[bad])
	}
	// The footer CRC covers the whole body, which was folded into body
	// field by field as the raw bytes were read.
	if _, err := io.ReadFull(br, d.scratch[:4]); err != nil {
		return nil, fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
	}
	if want := binary.LittleEndian.Uint32(d.scratch[:4]); body != want {
		return nil, fmt.Errorf("%w: body crc mismatch %08x != %08x", ErrCorrupt, body, want)
	}
	return s, nil
}

// readData reads a length-prefixed payload. Small payloads get one exact
// allocation; large ones grow incrementally in chunks so that a corrupt
// length field on a truncated stream errors out instead of committing a
// terabyte-sized allocation up front.
func readData(br *bufio.Reader, length uint64) ([]byte, error) {
	const chunk = 1 << 20
	if length <= chunk {
		data := make([]byte, length)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	data := make([]byte, 0, chunk)
	for remaining := length; remaining > 0; {
		n := uint64(chunk)
		if n > remaining {
			n = remaining
		}
		off := len(data)
		data = append(data, make([]byte, n)...)
		if _, err := io.ReadFull(br, data[off:]); err != nil {
			return nil, err
		}
		remaining -= n
	}
	return data, nil
}

// verifyChecksums recomputes every tensor's data CRC against the stored
// d.crcs and returns the lowest mismatching tensor index or -1.
func (d *decoder) verifyChecksums(s *State) int {
	for i := range s.Tensors {
		if crc32.Checksum(s.Tensors[i].Data, castagnoli) != d.crcs[i] {
			return i
		}
	}
	return -1
}

// EncodedSize returns the exact number of bytes Encode will produce, so
// callers can pre-grow their destinations.
func EncodedSize(s *State) int64 {
	n := int64(len(magic)) + 8 + 8 + 4 + 4 // magic, iter, shard, count, footer
	for i := range s.Tensors {
		t := &s.Tensors[i]
		n += 2 + int64(len(t.Name)) + 1 + 1 + int64(len(t.Shape))*8 + 8 + int64(len(t.Data)) + 4
	}
	return n
}
