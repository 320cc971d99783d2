package wire

// Batch frames: N envelopes under one header, so coalescing transports pay
// one datagram (and one ARQ exchange) for a burst of small control
// messages — hello storms, vote fan-outs, replica-update floods.
//
// Layout (see DESIGN.md Appendix E):
//
//	magic    2 bytes   'Q' 'B'
//	version  1 byte    currently 1
//	count    uvarint   number of envelopes, 1..MaxBatch
//	entries  count ×   uvarint length + standard envelope frame
//
// Every entry is a complete single-envelope frame (magic included), so the
// inner codec's versioning and validation apply unchanged — entries may mix
// envelope versions (spanless version-1 next to span-carrying version-2)
// and each validates on its own. DecodeBatch never panics on hostile input;
// errors wrap the same sentinels as Decode.

import (
	"encoding/binary"
	"fmt"
)

// BatchVersion is the current batch frame format version.
const BatchVersion = 1

// BatchMagic prefixes every batch frame.
var BatchMagic = [2]byte{'Q', 'B'}

// MaxBatch bounds the number of envelopes one batch frame may carry.
const MaxBatch = 256

// AppendBatchRaw builds a batch frame from already-encoded envelope
// frames, appending to b. The coalescing transport encodes each envelope
// at enqueue time, so building the frame pays no second encode per entry.
// Each frame is checked for the single-envelope header (anything deeper is
// caught by DecodeBatch on the receive side).
func AppendBatchRaw(b []byte, frames [][]byte) ([]byte, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalid)
	}
	if len(frames) > MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d exceeds MaxBatch %d", ErrInvalid, len(frames), MaxBatch)
	}
	b = append(b, BatchMagic[0], BatchMagic[1], BatchVersion)
	b = binary.AppendUvarint(b, uint64(len(frames)))
	for i, frame := range frames {
		if len(frame) < 4 || frame[0] != Magic[0] || frame[1] != Magic[1] {
			return nil, fmt.Errorf("%w: entry %d is not an envelope frame", ErrInvalid, i)
		}
		b = binary.AppendUvarint(b, uint64(len(frame)))
		b = append(b, frame...)
	}
	return b, nil
}

// DecodeBatch parses one batch frame, which must occupy the whole buffer.
func DecodeBatch(b []byte) ([]*Envelope, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d-byte batch frame", ErrTruncated, len(b))
	}
	if b[0] != BatchMagic[0] || b[1] != BatchMagic[1] {
		return nil, fmt.Errorf("%w: % x", ErrBadMagic, b[:2])
	}
	if b[2] != BatchVersion {
		return nil, fmt.Errorf("%w: batch version %d", ErrVersion, b[2])
	}
	d := &decoder{buf: b, pos: 3}
	// Each entry costs at least a length byte plus a 4-byte minimal frame.
	count, err := d.count(5)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalid)
	}
	if count > MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d exceeds MaxBatch %d", ErrInvalid, count, MaxBatch)
	}
	envs := make([]*Envelope, 0, count)
	for i := 0; i < count; i++ {
		size, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if size > uint64(d.remaining()) {
			return nil, fmt.Errorf("%w: entry %d length %d exceeds frame", ErrInvalid, i, size)
		}
		env, err := Decode(d.buf[d.pos : d.pos+int(size)])
		if err != nil {
			return nil, fmt.Errorf("batch entry %d: %w", i, err)
		}
		d.pos += int(size)
		envs = append(envs, env)
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d bytes after batch", ErrTrailing, len(d.buf)-d.pos)
	}
	return envs, nil
}
