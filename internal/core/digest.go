package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/dfsm"
)

// DigestScheme versions the request-digest layout. It is the first byte
// of the hashed stream AND a field of every persisted cache entry, so
// bumping it — for an algorithm change that alters generated fusions, or
// a serialization change — cleanly invalidates every previously stored
// digest instead of serving stale results under colliding keys.
const DigestScheme = 1

// Digest is the content address of one Generate request: a SHA-256 over
// the canonical serialization of everything that determines the output of
// Algorithm 2 — the machines' full transition tables (via
// dfsm.TableDigest), the fault budget f, and the semantics-affecting
// generation options. Requests with equal digests produce bit-identical
// fusions; the fcache package keys on it, and cross-tenant sharing is
// safe exactly because no tenant identity participates here.
type Digest [32]byte

// String returns the digest in lowercase hex (the persisted-entry key
// form).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// ParseDigest decodes the hex form; ok is false on malformed input.
func ParseDigest(s string) (Digest, bool) {
	var d Digest
	if len(s) != 2*len(d) {
		return Digest{}, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return Digest{}, false
	}
	copy(d[:], b)
	return d, true
}

// RequestDigest computes the content address of GenerateFusion(sys, f,
// opts) for a system built from ms (machine order matters — it determines
// block numbering in ⊤ and therefore the partitions' canonical form).
//
// Of the options only MaxMachines participates: it changes the outcome
// (success vs. the too-many-machines error). Pool never affects results.
func RequestDigest(ms []*dfsm.Machine, f int, opts GenerateOptions) Digest {
	// Streamed into one hasher, so the digest costs no allocation: the
	// hashed bytes are the scheme, three uvarints, then each table digest.
	h := sha256.New()
	var hdr [1 + 3*binary.MaxVarintLen64]byte
	b := append(hdr[:0], DigestScheme)
	b = binary.AppendUvarint(b, uint64(f))
	b = binary.AppendUvarint(b, uint64(opts.MaxMachines))
	b = binary.AppendUvarint(b, uint64(len(ms)))
	h.Write(b)
	for _, m := range ms {
		d := m.TableDigest()
		h.Write(d[:])
	}
	var out Digest
	h.Sum(out[:0])
	return out
}
