package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
)

func TestSpanRoundTrip(t *testing.T) {
	env := &Envelope{
		Type:     msg.TQuorumClt,
		MsgID:    7,
		Src:      2,
		Dst:      3,
		Category: metrics.CatConfig,
		Span:     0x0002_0000_0000_0001, // MintSpan(2, 1)
		Payload:  msg.QuorumClt{BallotID: 1, Owner: 2, Addr: 5, Allocator: 2},
	}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if b[2] != VersionSpan {
		t.Fatalf("span envelope encoded as version %d, want %d", b[2], VersionSpan)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env, got) {
		t.Fatalf("round trip:\n in: %+v\nout: %+v", env, got)
	}
}

// TestSpanlessEncodesAsVersion1 pins backward compatibility: an envelope
// without a span must produce bytes identical to what pre-span builds
// emitted, so old decoders never see a version they don't know.
func TestSpanlessEncodesAsVersion1(t *testing.T) {
	env := &Envelope{Type: msg.TComReq, Src: 1, Dst: 2, Category: metrics.CatConfig, Payload: msg.ComReq{PathHops: 1}}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if b[2] != Version {
		t.Fatalf("spanless envelope encoded as version %d, want %d", b[2], Version)
	}
	// The exact version-1 layout, byte for byte: magic, version, type code,
	// msgID, src, dst, category, hops, payload. Built here by hand so a
	// layout change (e.g. emitting the span field unconditionally) fails.
	code := typeCodes[msg.TComReq]
	want := []byte{'Q', 'W', 1, code}
	want = binary.AppendUvarint(want, 0)    // msgID
	want = binary.AppendVarint(want, 1)     // src
	want = binary.AppendVarint(want, 2)     // dst
	want = append(want, byte(env.Category)) // category
	want = binary.AppendUvarint(want, 0)    // hops
	want = binary.AppendVarint(want, 1)     // payload: ComReq.PathHops
	if !bytes.Equal(b, want) {
		t.Fatalf("legacy layout changed:\ngot  % x\nwant % x", b, want)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Span != 0 {
		t.Fatalf("spanless frame decoded with span %x", got.Span)
	}
}

func TestSpanVersion2ZeroSpanRejected(t *testing.T) {
	env := &Envelope{Type: msg.TComReq, Src: 1, Dst: 2, Category: metrics.CatConfig, Span: 9, Payload: msg.ComReq{}}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	// Surgically zero the span uvarint (last byte before the payload's
	// PathHops uvarint; both are single-byte here). Rebuild the frame with
	// span byte 0 instead.
	forged := append([]byte{}, b...)
	// Frame: magic(2) version(1) code(1) msgID(1) src(1) dst(1) cat(1) hops(1) span(1) pathhops(1)
	forged[9] = 0
	_, err = Decode(forged)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("v2 frame with zero span: err = %v, want ErrInvalid", err)
	}
}

func TestSpanTruncatedAfterHops(t *testing.T) {
	env := &Envelope{Type: msg.TComReq, Src: 1, Dst: 2, Category: metrics.CatConfig, Span: 1 << 40, Payload: msg.ComReq{}}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the multi-byte span uvarint.
	_, err = Decode(b[:10])
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated span: err = %v, want ErrTruncated", err)
	}
}

// TestBatchMixedSpanVersions pins that one batch frame may carry spanless
// version-1 entries next to span-carrying version-2 entries — exactly what
// a coalescing transport produces while traced and untraced traffic share
// a destination.
func TestBatchMixedSpanVersions(t *testing.T) {
	envs := []*Envelope{
		{Type: msg.TComReq, MsgID: 1, Src: 1, Dst: 2, Category: metrics.CatConfig, Payload: msg.ComReq{}},
		{Type: msg.TQuorumClt, MsgID: 2, Src: 1, Dst: 2, Category: metrics.CatConfig, Span: 42,
			Payload: msg.QuorumClt{BallotID: 3, Owner: 1, Addr: 9, Allocator: 1}},
	}
	b, err := encodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(envs, got) {
		t.Fatalf("batch round trip:\n in: %+v %+v\nout: %+v %+v", envs[0], envs[1], got[0], got[1])
	}

	// The raw fast path must accept pre-encoded version-2 frames too.
	f1, _ := Encode(envs[0])
	f2, _ := Encode(envs[1])
	raw, err := AppendBatchRaw(nil, [][]byte{f1, f2})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := DecodeBatch(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(envs, got2) {
		t.Fatal("raw batch round trip mismatch")
	}
}
