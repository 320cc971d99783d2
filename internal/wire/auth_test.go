package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

func sealedFrame(t *testing.T, inner []byte) []byte {
	t.Helper()
	f, err := Seal(testKey, inner)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return f
}

func TestAuthRoundTrip(t *testing.T) {
	inners := [][]byte{
		{},
		{0x01},
		[]byte("hello quorum"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	for _, inner := range inners {
		f := sealedFrame(t, inner)
		if len(f) != len(inner)+AuthOverhead {
			t.Fatalf("sealed length %d, want %d", len(f), len(inner)+AuthOverhead)
		}
		got, err := Open(testKey, f)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, inner) {
			t.Fatalf("inner mismatch: got %x want %x", got, inner)
		}
	}
}

func TestAuthAppendSeal(t *testing.T) {
	prefix := []byte{0xFF, 0xFE}
	f, err := AppendSeal(prefix, testKey, []byte("payload"))
	if err != nil {
		t.Fatalf("AppendSeal: %v", err)
	}
	if !bytes.Equal(f[:2], prefix) {
		t.Fatalf("prefix clobbered: % x", f[:2])
	}
	if _, err := Open(testKey, f[2:]); err != nil {
		t.Fatalf("Open after AppendSeal: %v", err)
	}
}

func TestAuthTamperRejected(t *testing.T) {
	inner := []byte("a perfectly honest vote")
	base := sealedFrame(t, inner)
	// Flip every single byte position in turn: each must fail — with
	// ErrAuth once past the header checks.
	for i := range base {
		f := append([]byte(nil), base...)
		f[i] ^= 0x40
		if _, err := Open(testKey, f); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
	// A MAC or body flip specifically reports ErrAuth.
	for _, i := range []int{3, 3 + macSize} {
		f := append([]byte(nil), base...)
		f[i] ^= 0x01
		if _, err := Open(testKey, f); !errors.Is(err, ErrAuth) {
			t.Fatalf("byte %d flip: got %v, want ErrAuth", i, err)
		}
	}
}

func TestAuthWrongKey(t *testing.T) {
	f := sealedFrame(t, []byte("cluster-a traffic"))
	other := []byte("ffffffffffffffffffffffffffffffff")
	if _, err := Open(other, f); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong key: got %v, want ErrAuth", err)
	}
}

func TestAuthSentinels(t *testing.T) {
	f := sealedFrame(t, []byte("x"))
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrTruncated},
		{"short", f[:AuthOverhead-1], ErrTruncated},
		{"bad magic", append([]byte{'X', 'A'}, f[2:]...), ErrBadMagic},
		{"envelope magic", append([]byte{Magic[0], Magic[1]}, f[2:]...), ErrBadMagic},
		{"bad version", append([]byte{'Q', 'A', 99}, f[3:]...), ErrVersion},
	}
	for _, tc := range cases {
		if _, err := Open(testKey, tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := Open(nil, f); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty key Open: got %v, want ErrInvalid", err)
	}
	if _, err := Seal(nil, []byte("x")); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty key Seal: got %v, want ErrInvalid", err)
	}
}

func TestAuthDeterministic(t *testing.T) {
	// Retransmissions reuse the sealed frame, so sealing must be a pure
	// function of (key, inner).
	a := sealedFrame(t, []byte("retry me"))
	b := sealedFrame(t, []byte("retry me"))
	if !bytes.Equal(a, b) {
		t.Fatal("Seal is not deterministic")
	}
}

// TestAuthAfterRejectedFrame: whatever a rejected frame left in a keyed
// Auth's MAC state — nothing (rejected before the MAC), or a whole digest
// that did not verify — the next seal and open under it are exact.
func TestAuthAfterRejectedFrame(t *testing.T) {
	inner := []byte("the next honest vote")
	want := sealedFrame(t, inner)
	good := sealedFrame(t, []byte("a first frame"))
	forged, err := Seal([]byte("ffffffffffffffffffffffffffffffff"), []byte("a first frame"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated", good[:AuthOverhead-1], ErrTruncated},
		{"bad magic", append([]byte{'X', 'A'}, good[2:]...), ErrBadMagic},
		{"bad version", append([]byte{'Q', 'A', 99}, good[3:]...), ErrVersion},
		{"wrong key", forged, ErrAuth},
		{"flipped body", flipped, ErrAuth},
	}
	for _, tc := range cases {
		a, err := NewAuth(testKey)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Open(tc.frame); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Open got %v, want %v", tc.name, err, tc.want)
		}
		if got := a.AppendSeal(nil, inner); !bytes.Equal(got, want) {
			t.Fatalf("%s: seal after the rejection\n got %x\nwant %x", tc.name, got, want)
		}
		if got, err := a.Open(want); err != nil || !bytes.Equal(got, inner) {
			t.Fatalf("%s: open after the rejection: %q, %v", tc.name, got, err)
		}
	}
	if _, err := NewAuth(nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty key NewAuth: got %v, want ErrInvalid", err)
	}
}

// TestAuthZeroAllocs pins what keying once buys beyond the keying itself:
// a keyed Auth opens, and seals into a buffer with room, without
// allocating.
func TestAuthZeroAllocs(t *testing.T) {
	a, err := NewAuth(testKey)
	if err != nil {
		t.Fatal(err)
	}
	inner := bytes.Repeat([]byte{0x5A}, 120)
	frame := sealedFrame(t, inner)
	buf := make([]byte, 0, len(frame))
	if n := testing.AllocsPerRun(100, func() { buf = a.AppendSeal(buf[:0], inner) }); n != 0 {
		t.Errorf("Auth.AppendSeal into a buffer with room: %v allocations, want 0", n)
	}
	if !bytes.Equal(buf, frame) {
		t.Fatalf("Auth.AppendSeal differs from Seal")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := a.Open(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Auth.Open: %v allocations, want 0", n)
	}
}

// FuzzAuthFrameRoundTrip throws arbitrary bytes at Open and checks the
// seal/open invariants: Open never panics, a sealed frame opens to its
// inner bytes under the sealing key, and any frame that opens under the
// key re-seals to identical bytes (canonical encoding). One keyed Auth,
// reused across every input, must agree with the package functions on
// every verdict, inner and re-seal.
func FuzzAuthFrameRoundTrip(f *testing.F) {
	key := []byte("fuzz-key-0123456789abcdef0123456")
	auth, err := NewAuth(key)
	if err != nil {
		f.Fatal(err)
	}
	seed := func(inner []byte) {
		frame, err := Seal(key, inner)
		if err != nil {
			f.Fatalf("seed Seal: %v", err)
		}
		f.Add(frame)
	}
	seed(nil)
	seed([]byte{'D'})
	seed([]byte("the quick brown fox"))
	// A realistic inner: a transport data frame (kind byte + envelope
	// magic + arbitrary body bytes).
	seed(append([]byte{'D', Magic[0], Magic[1], Version}, 1, 2, 3))
	// Corruptions.
	good, _ := Seal(key, []byte("corrupt me"))
	for i := 0; i < len(good); i += 7 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xFF
		f.Add(bad)
	}
	f.Add([]byte{'Q', 'A'})
	f.Add([]byte{'Q', 'A', 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		inner, err := Open(key, data)
		keyedInner, keyedErr := auth.Open(data)
		if fmt.Sprint(err) != fmt.Sprint(keyedErr) || !bytes.Equal(inner, keyedInner) {
			t.Fatalf("verdicts differ: Open %q, %v; Auth.Open %q, %v", inner, err, keyedInner, keyedErr)
		}
		if err != nil {
			return // rejected input; only invariant is "no panic"
		}
		resealed, err := Seal(key, inner)
		if err != nil {
			t.Fatalf("re-Seal of opened frame: %v", err)
		}
		if !bytes.Equal(resealed, data) {
			t.Fatalf("non-canonical auth frame:\n in %x\nout %x", data, resealed)
		}
		if keyed := auth.AppendSeal(nil, inner); !bytes.Equal(keyed, resealed) {
			t.Fatalf("Auth.AppendSeal differs from Seal:\n got %x\nwant %x", keyed, resealed)
		}
		again, err := Open(key, resealed)
		if err != nil {
			t.Fatalf("re-Open: %v", err)
		}
		if !bytes.Equal(again, inner) {
			t.Fatalf("inner changed across round-trip")
		}
	})
}
