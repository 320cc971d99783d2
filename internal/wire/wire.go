// Package wire is the versioned binary codec for protocol messages.
//
// Every payload type in internal/msg has a compact binary form; an
// Envelope frames one payload with the routing metadata the transports
// need (source, destination, message ID, traffic category). The format is
// the contract between daemons built from different checkouts, so it is
// explicit about versioning and rejects anything it does not understand.
//
// Layout (all multi-byte integers are varints, see below):
//
//	magic    2 bytes   'Q' 'W'
//	version  1 byte    1 (no span) or 2 (span extension)
//	type     1 byte    message type code (table derived from msg.Types())
//	msgID    uvarint   transport-level dedup/ack ID (0 = unassigned)
//	src      varint    sender node ID (zigzag)
//	dst      varint    destination node ID (zigzag)
//	category 1 byte    metrics.Category the traffic is charged to
//	hops     uvarint   hop count (filled at delivery; 0 before)
//	span     uvarint   version 2 only: causal span ID (never 0 on the wire)
//	payload  ...       type-specific body, extends to the end of the buffer
//
// The span extension is versioned for backward compatibility: an envelope
// with Span == 0 encodes as version 1, byte-identical to pre-span builds,
// so old decoders keep working until they actually receive a span. A
// version-2 frame carrying span 0 is rejected (ErrInvalid) to keep the
// encoding canonical — every valid frame has exactly one byte form.
//
// Unsigned fields use unsigned LEB128 (encoding/binary uvarint); signed
// fields use zigzag varints. Addresses are uvarint32, versions uvarint64.
// Tables encode as block + explicit entries sorted by address, so encoding
// is canonical: Decode(Encode(e)) re-encodes to identical bytes.
//
// Decode never panics on hostile input: truncation, unknown versions or
// type codes, invalid field values and trailing garbage all surface as
// wrapped sentinel errors (ErrTruncated, ErrVersion, ErrUnknownType,
// ErrInvalid, ErrTrailing).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
)

// Version is the base wire format version (no span extension).
const Version = 1

// VersionSpan is the wire format version carrying the causal span ID
// extension. Encode picks it automatically when Envelope.Span is nonzero.
const VersionSpan = 2

// Magic prefixes every frame.
var Magic = [2]byte{'Q', 'W'}

// Decode/Encode error sentinels. Returned errors wrap these, so test with
// errors.Is.
var (
	ErrTruncated   = errors.New("wire: truncated frame")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrVersion     = errors.New("wire: unknown version")
	ErrUnknownType = errors.New("wire: unknown message type")
	ErrInvalid     = errors.New("wire: invalid field")
	ErrTrailing    = errors.New("wire: trailing bytes")
	ErrPayload     = errors.New("wire: payload does not match message type")
)

// Envelope frames one protocol message for transport.
type Envelope struct {
	// MsgID is the transport-level message ID used for deduplication and
	// acknowledgement. Zero means "not yet assigned".
	MsgID uint64
	// Type is the message type name (one of msg.Types()).
	Type string
	// Src and Dst are the endpoints.
	Src, Dst radio.NodeID
	// Category is the metrics bucket the traffic is charged to.
	Category metrics.Category
	// Hops is the traversed hop count, filled at delivery.
	Hops int
	// Span is the causal trace identifier of the operation this message
	// belongs to (see obs.MintSpan). Zero means untraced; such envelopes
	// encode in the version-1 format.
	Span uint64
	// Payload is the typed message body; its concrete type must match Type
	// (see internal/msg).
	Payload any
}

// Type code table, derived from the stable order of msg.Types(). Codes
// start at 1; 0 is reserved as invalid.
var (
	typeCodes = map[string]byte{}
	codeTypes = map[byte]string{}
)

func init() {
	for i, t := range msg.Types() {
		code := byte(i + 1)
		typeCodes[t] = code
		codeTypes[code] = t
	}
}

// Encode serializes the envelope.
func Encode(env *Envelope) ([]byte, error) {
	return AppendEncode(nil, env)
}

// AppendEncode serializes the envelope, appending to b.
func AppendEncode(b []byte, env *Envelope) ([]byte, error) {
	code, ok := typeCodes[env.Type]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, env.Type)
	}
	if env.Category < 0 || env.Category > 0xff {
		return nil, fmt.Errorf("%w: category %d out of range", ErrInvalid, env.Category)
	}
	if env.Hops < 0 {
		return nil, fmt.Errorf("%w: negative hop count %d", ErrInvalid, env.Hops)
	}
	version := byte(Version)
	if env.Span != 0 {
		version = VersionSpan
	}
	b = append(b, Magic[0], Magic[1], version, code)
	b = binary.AppendUvarint(b, env.MsgID)
	b = binary.AppendVarint(b, int64(env.Src))
	b = binary.AppendVarint(b, int64(env.Dst))
	b = append(b, byte(env.Category))
	b = binary.AppendUvarint(b, uint64(env.Hops))
	if env.Span != 0 {
		b = binary.AppendUvarint(b, env.Span)
	}
	c := coder{b: b}
	if c.payload(env.Type, env.Payload); c.err != nil {
		return nil, c.err
	}
	return c.b, nil
}

// Decode parses one envelope, which must occupy the whole buffer.
func Decode(b []byte) (*Envelope, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrTruncated, len(b))
	}
	if b[0] != Magic[0] || b[1] != Magic[1] {
		return nil, fmt.Errorf("%w: % x", ErrBadMagic, b[:2])
	}
	if b[2] != Version && b[2] != VersionSpan {
		return nil, fmt.Errorf("%w: %d", ErrVersion, b[2])
	}
	typ, ok := codeTypes[b[3]]
	if !ok {
		return nil, fmt.Errorf("%w: code %d", ErrUnknownType, b[3])
	}
	c := coder{d: decoder{buf: b, pos: 4}, dec: true}
	d := &c.d
	env := &Envelope{Type: typ}
	var err error
	if env.MsgID, err = d.uvarint(); err != nil {
		return nil, err
	}
	src, err := d.varint()
	if err != nil {
		return nil, err
	}
	dst, err := d.varint()
	if err != nil {
		return nil, err
	}
	env.Src, env.Dst = radio.NodeID(src), radio.NodeID(dst)
	cat, err := d.byte()
	if err != nil {
		return nil, err
	}
	env.Category = metrics.Category(cat)
	hops, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if hops > 1<<20 {
		return nil, fmt.Errorf("%w: hop count %d", ErrInvalid, hops)
	}
	env.Hops = int(hops)
	if b[2] == VersionSpan {
		if env.Span, err = d.uvarint(); err != nil {
			return nil, err
		}
		if env.Span == 0 {
			return nil, fmt.Errorf("%w: version %d frame with zero span", ErrInvalid, VersionSpan)
		}
	}
	if env.Payload = c.payload(typ, nil); c.err != nil {
		return nil, c.err
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d bytes after payload", ErrTrailing, len(d.buf)-d.pos)
	}
	return env, nil
}

// decoder is a cursor over one frame.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("%w: at offset %d", ErrTruncated, d.pos)
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrTruncated, d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrTruncated, d.pos)
	}
	d.pos += n
	return v, nil
}

// count reads a collection length and sanity-checks it against the bytes
// left in the frame (every element costs at least perElem bytes), so a
// hostile length prefix cannot trigger a huge allocation.
func (d *decoder) count(perElem int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if perElem < 1 {
		perElem = 1
	}
	if v > uint64(d.remaining()/perElem) {
		return 0, fmt.Errorf("%w: count %d exceeds frame", ErrInvalid, v)
	}
	return int(v), nil
}
