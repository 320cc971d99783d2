package wire

// Authenticated frames: an HMAC-SHA256 seal around any socket frame, so a
// transport can reject forged or corrupted datagrams before touching ARQ or
// protocol state. The seal wraps raw bytes — a single-envelope frame, a
// batch frame, or a transport ack — which keeps one verification point per
// datagram regardless of what rides inside.
//
// Layout (see DESIGN.md Appendix F):
//
//	magic    2 bytes   'Q' 'A'
//	version  1 byte    currently 1
//	mac      32 bytes  HMAC-SHA256(key, version byte || inner)
//	inner    ...       the wrapped frame, extends to the end of the buffer
//
// The version byte is covered by the MAC so a future format bump cannot be
// stripped or replayed across versions. Verification is constant-time
// (hmac.Equal); any mismatch surfaces as ErrAuth without revealing which
// byte differed. Open never panics on hostile input.
//
// Keying HMAC-SHA256 hashes the key into two block-sized pads, which costs
// more than the MAC of a small datagram. Auth does it once and resets the
// keyed state per frame; a transport gives every goroutine that seals or
// opens its own Auth. Seal, AppendSeal and Open key afresh on each call.

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
)

// AuthVersion is the current authenticated frame format version.
const AuthVersion = 1

// AuthMagic prefixes every authenticated frame.
var AuthMagic = [2]byte{'Q', 'A'}

// macSize is the HMAC-SHA256 digest length.
const macSize = sha256.Size

// AuthOverhead is how many bytes Seal adds around the inner frame.
const AuthOverhead = 2 + 1 + macSize

// ErrAuth reports a frame whose MAC did not verify under the given key —
// forged, corrupted, or keyed for a different cluster. Test with errors.Is.
var ErrAuth = errors.New("wire: frame authentication failed")

// Seal wraps inner in an authenticated frame keyed with key.
func Seal(key, inner []byte) ([]byte, error) {
	return AppendSeal(nil, key, inner)
}

// AppendSeal is Seal appending to b.
func AppendSeal(b, key, inner []byte) ([]byte, error) {
	a, err := NewAuth(key)
	if err != nil {
		return nil, err
	}
	return a.AppendSeal(b, inner), nil
}

// Open verifies an authenticated frame and returns the inner bytes. The
// returned slice aliases b. Errors wrap the usual sentinels: ErrTruncated,
// ErrBadMagic, ErrVersion, and ErrAuth for a MAC mismatch.
func Open(key, b []byte) ([]byte, error) {
	a, err := NewAuth(key)
	if err != nil {
		return nil, err
	}
	return a.Open(b)
}

// Auth seals and opens authenticated frames under one key, keyed once.
// Its frames are byte-identical to Seal's. An Auth is not safe for
// concurrent use: each goroutine that seals or opens needs its own.
type Auth struct {
	mac hash.Hash
	// Scratch space, so that neither direction allocates: the version byte
	// handed to mac.Write (a []byte{v} literal would escape through the
	// interface) and the MAC Open computes.
	version [1]byte
	sum     [macSize]byte
}

// NewAuth keys an Auth with key, which must not be empty.
func NewAuth(key []byte) (*Auth, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("%w: empty auth key", ErrInvalid)
	}
	return &Auth{mac: hmac.New(sha256.New, key)}, nil
}

// AppendSeal wraps inner in an authenticated frame appended to b. It does
// not allocate when b has room for AuthOverhead+len(inner) more bytes.
func (a *Auth) AppendSeal(b, inner []byte) []byte {
	b = append(b, AuthMagic[0], AuthMagic[1], AuthVersion)
	b = a.digest(b, AuthVersion, inner)
	return append(b, inner...)
}

// Open is the package-level Open under a's key. It does not allocate on
// success.
func (a *Auth) Open(b []byte) ([]byte, error) {
	if len(b) < AuthOverhead {
		return nil, fmt.Errorf("%w: %d-byte auth frame", ErrTruncated, len(b))
	}
	if b[0] != AuthMagic[0] || b[1] != AuthMagic[1] {
		return nil, fmt.Errorf("%w: % x", ErrBadMagic, b[:2])
	}
	if b[2] != AuthVersion {
		return nil, fmt.Errorf("%w: auth version %d", ErrVersion, b[2])
	}
	sum, inner := b[3:3+macSize], b[3+macSize:]
	if !hmac.Equal(sum, a.digest(a.sum[:0], b[2], inner)) {
		return nil, ErrAuth
	}
	return inner, nil
}

// digest appends HMAC(key, version || inner) to dst. Reset restores the
// keyed state whatever the previous frame left in it.
func (a *Auth) digest(dst []byte, version byte, inner []byte) []byte {
	a.mac.Reset()
	a.version[0] = version
	a.mac.Write(a.version[:])
	a.mac.Write(inner)
	return a.mac.Sum(dst)
}

// DeriveKey turns a cluster passphrase into the 32-byte HMAC key the
// authenticated frame layer uses. The domain-separation prefix keeps the
// key distinct from any other SHA-256 use of the same passphrase. An empty
// passphrase returns nil (authentication disabled), so CLI flags can pass
// their value through unconditionally.
func DeriveKey(passphrase string) []byte {
	if passphrase == "" {
		return nil
	}
	sum := sha256.Sum256([]byte("quorumconf-auth-v1:" + passphrase))
	return sum[:]
}
