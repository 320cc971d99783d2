package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden from the current encoder")

const goldenPath = "testdata/frames.golden"

// goldenEnvelopes is every sampleEnvelopes entry twice: spanless (version 1)
// and span-carrying (version 2), in msg.Types() order.
func goldenEnvelopes(t *testing.T) []*Envelope {
	t.Helper()
	var out []*Envelope
	for i, env := range sampleEnvelopes(t) {
		spanned := *env
		spanned.Span = 0x0002_0000_0000_0001 + uint64(i)
		out = append(out, env, &spanned)
	}
	return out
}

func readGolden(t *testing.T) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/wire -run TestGoldenFrames -update)", err)
	}
	var frames [][]byte
	for _, line := range strings.Fields(string(raw)) {
		b, err := hex.DecodeString(line)
		if err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
		frames = append(frames, b)
	}
	return frames
}

// TestGoldenFrames pins the wire format byte for byte: the committed frames
// are what daemons built from earlier checkouts send and expect.
func TestGoldenFrames(t *testing.T) {
	envs := goldenEnvelopes(t)
	if *update {
		var sb strings.Builder
		for _, env := range envs {
			b, err := Encode(env)
			if err != nil {
				t.Fatalf("%s: %v", env.Type, err)
			}
			sb.WriteString(hex.EncodeToString(b) + "\n")
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	frames := readGolden(t)
	if len(frames) != len(envs) {
		t.Fatalf("%s holds %d frames, want %d", goldenPath, len(frames), len(envs))
	}
	for i, env := range envs {
		b, err := Encode(env)
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Type, err)
		}
		if !bytes.Equal(b, frames[i]) {
			t.Errorf("%s (span %x): encoding changed\n got: %x\nwant: %x", env.Type, env.Span, b, frames[i])
		}
		got, err := Decode(frames[i])
		if err != nil {
			t.Errorf("%s (span %x): golden frame rejected: %v", env.Type, env.Span, err)
			continue
		}
		if !reflect.DeepEqual(env, got) {
			t.Errorf("%s: golden frame decodes to\n%+v\nwant\n%+v", env.Type, got, env)
		}
		if b2, err := Encode(got); err != nil || !bytes.Equal(b2, frames[i]) {
			t.Errorf("%s: decoded golden frame re-encodes to %x (%v)", env.Type, b2, err)
		}
	}
}

// mutantRNG is a fixed xorshift64* generator, spelled out here so the
// mutant stream cannot change with the standard library.
type mutantRNG uint64

func (r *mutantRNG) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = mutantRNG(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *mutantRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// mutate applies one to three random edits (bit flip, byte set, truncate,
// insert) to a copy of frame.
func (r *mutantRNG) mutate(frame []byte) []byte {
	m := append([]byte(nil), frame...)
	for edits := 1 + r.intn(3); edits > 0 && len(m) > 0; edits-- {
		i := r.intn(len(m))
		if i < 4 && len(m) > 4 && r.intn(4) != 0 {
			i = 4 + r.intn(len(m)-4) // most header hits die on magic/version: spend them on the body
		}
		switch r.intn(4) {
		case 0:
			m[i] ^= 1 << r.intn(8)
		case 1:
			m[i] = byte(r.next())
		case 2:
			m = m[:i]
		case 3:
			m = append(m[:i], append([]byte{byte(r.next())}, m[i:]...)...)
		}
	}
	return m
}

// verdictClass names the sentinel an error wraps.
func verdictClass(err error) string {
	for _, s := range []error{ErrTruncated, ErrBadMagic, ErrVersion, ErrUnknownType, ErrInvalid, ErrTrailing, ErrPayload} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "unclassified: " + err.Error()
}

const (
	mutantsPerFrame = 3000
	// Computed with the two-switch codec of commit f6dfb3d; any codec
	// change must reproduce them exactly.
	mutantsAccepted = 48918
	mutantDigest    = "3fa4f74939a6782b27ae2f31591d978cd05a314f095cba9555f13e49b7d10047"
)

// TestMutantVerdictsPinned pins Decode's verdict on 210 000 seeded mutants
// of the golden frames: which are accepted, what they re-encode to, and
// which sentinel rejects each of the others.
func TestMutantVerdictsPinned(t *testing.T) {
	rng := mutantRNG(0x9E3779B97F4A7C15)
	h := sha256.New()
	accepted := 0
	classes := map[string]int{}
	var lenBuf [binary.MaxVarintLen64]byte
	write := func(b []byte) {
		h.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(b)))])
		h.Write(b)
	}
	for _, frame := range readGolden(t) {
		for i := 0; i < mutantsPerFrame; i++ {
			m := rng.mutate(frame)
			write(m)
			env, err := Decode(m)
			if err != nil {
				c := verdictClass(err)
				classes[c]++
				write([]byte(c))
				continue
			}
			b, err := Encode(env)
			if err != nil {
				t.Fatalf("accepted mutant %x fails to re-encode: %v", m, err)
			}
			accepted++
			write([]byte("ok"))
			write(b)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if accepted != mutantsAccepted || got != mutantDigest {
		t.Errorf("accepted %d mutants, digest %s\nwant     %d mutants, digest %s\nrejections by class: %v",
			accepted, got, mutantsAccepted, mutantDigest, classes)
	}
}
