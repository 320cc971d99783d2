package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
)

// encodeBatch frames envs as one batch the way the transport does: each
// envelope encoded on its own, then the frames joined by AppendBatchRaw.
func encodeBatch(envs []*Envelope) ([]byte, error) {
	frames := make([][]byte, len(envs))
	for i, env := range envs {
		f, err := Encode(env)
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	return AppendBatchRaw(nil, frames)
}

func batchSamples(t testing.TB) []*Envelope {
	t.Helper()
	return []*Envelope{
		{Type: msg.TComReq, MsgID: 11, Src: 1, Dst: 2, Category: metrics.CatConfig,
			Payload: msg.ComReq{PathHops: 1}},
		{Type: msg.TQuorumClt, MsgID: 12, Src: 2, Dst: 3, Category: metrics.CatConfig,
			Payload: msg.QuorumClt{BallotID: 7, Owner: 2, Addr: 5, Allocator: 2}},
		{Type: msg.TQuorumCfm, MsgID: 13, Src: 3, Dst: 2, Category: metrics.CatConfig,
			Payload: msg.QuorumCfm{BallotID: 7, Entry: addrspace.Entry{Status: addrspace.Free, Version: 3}, HasReplica: true}},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	envs := batchSamples(t)
	for n := 1; n <= len(envs); n++ {
		b, err := encodeBatch(envs[:n])
		if err != nil {
			t.Fatalf("encodeBatch(%d): %v", n, err)
		}
		got, err := DecodeBatch(b)
		if err != nil {
			t.Fatalf("DecodeBatch(%d): %v", n, err)
		}
		if !reflect.DeepEqual(got, envs[:n]) {
			t.Fatalf("round trip mismatch at n=%d:\n got %+v\nwant %+v", n, got, envs[:n])
		}
		// Canonical: re-encoding the decoded batch gives identical bytes.
		b2, err := encodeBatch(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("encoding not canonical at n=%d", n)
		}
	}
}

func TestBatchRejects(t *testing.T) {
	envs := batchSamples(t)
	valid, err := encodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := encodeBatch(nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty batch: got %v, want ErrInvalid", err)
	}
	big := make([]*Envelope, MaxBatch+1)
	for i := range big {
		big[i] = envs[0]
	}
	if _, err := encodeBatch(big); !errors.Is(err, ErrInvalid) {
		t.Errorf("oversized batch: got %v, want ErrInvalid", err)
	}

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", valid[:3], ErrTruncated},
		{"bad magic", append([]byte{'X', 'B'}, valid[2:]...), ErrBadMagic},
		{"single-envelope frame", mustEncode(t, envs[0]), ErrBadMagic},
		{"bad version", append([]byte{'Q', 'B', 99}, valid[3:]...), ErrVersion},
		{"truncated entry", valid[:len(valid)-2], ErrInvalid},
		{"trailing bytes", append(append([]byte{}, valid...), 0), ErrTrailing},
		{"huge count", []byte{'Q', 'B', BatchVersion, 0xff, 0xff, 0xff, 0x7f}, ErrInvalid},
		{"zero count", []byte{'Q', 'B', BatchVersion, 0, 1, 2}, ErrInvalid},
	}
	for _, tc := range cases {
		if _, err := DecodeBatch(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func mustEncode(t testing.TB, env *Envelope) []byte {
	t.Helper()
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzBatchRoundTrip mirrors FuzzWireRoundTrip for the batch frame: any
// input DecodeBatch accepts must re-encode canonically, and DecodeBatch
// must never panic or over-read.
func FuzzBatchRoundTrip(f *testing.F) {
	envs := []*Envelope{
		{Type: msg.TComReq, Src: 1, Dst: 2, Category: metrics.CatConfig, Payload: msg.ComReq{PathHops: 1}},
		{Type: msg.TQuorumClt, Src: 2, Dst: 3, Category: metrics.CatConfig,
			Payload: msg.QuorumClt{BallotID: 1, Owner: 2, Addr: 5, Allocator: 2}},
		{Type: msg.TRepReq, Src: 1, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}},
	}
	for n := 1; n <= len(envs); n++ {
		b, err := encodeBatch(envs[:n])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if len(b) > 5 {
			corrupt := append([]byte{}, b...)
			corrupt[len(b)/2] ^= 0xff
			f.Add(corrupt)
			f.Add(b[:len(b)/2])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{'Q', 'B', 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		envs, err := DecodeBatch(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		b, err := encodeBatch(envs)
		if err != nil {
			t.Fatalf("decoded batch fails to encode: %v", err)
		}
		envs2, err := DecodeBatch(b)
		if err != nil {
			t.Fatalf("re-encoded batch fails to decode: %v", err)
		}
		if !reflect.DeepEqual(envs, envs2) {
			t.Fatalf("round trip mismatch:\n 1: %+v\n 2: %+v", envs, envs2)
		}
		b2, err := encodeBatch(envs2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("encoding not canonical:\n 1: % x\n 2: % x", b, b2)
		}
	})
}
