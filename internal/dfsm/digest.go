package dfsm

import (
	"crypto/sha256"
	"encoding/binary"
)

// TableDigest returns a SHA-256 digest of the machine's full definition —
// name, state names, event names, initial state, and the transition table
// — in the same canonical order the JSON codec uses (states and events in
// index order, delta rows in (state, event) order). Two machines have
// equal digests iff Machine.Equal holds, so the digest is a content
// address for the machine; the fusion cache builds whole-request keys out
// of these (see core.RequestDigest).
//
// Machines are immutable, so the digest is computed on the first call
// and kept on the machine; later calls are one atomic load.
func (m *Machine) TableDigest() [32]byte {
	if d := m.digest.Load(); d != nil {
		return *d
	}
	d := m.tableDigest()
	// Concurrent first calls compute the same value; either store wins.
	m.digest.Store(&d)
	return d
}

// tableDigest hashes the canonical serialization. Every variable-length
// field is length-prefixed (uvarint) so distinct definitions can never
// serialize to the same byte stream.
func (m *Machine) tableDigest() [32]byte {
	size := 8 + len(m.name) + len(m.states)*8 + len(m.events)*8 + len(m.states)*len(m.events)*2
	buf := make([]byte, 0, size)
	appendStr := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	appendStr(m.name)
	buf = binary.AppendUvarint(buf, uint64(len(m.states)))
	for _, s := range m.states {
		appendStr(s)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.events)))
	for _, e := range m.events {
		appendStr(e)
	}
	buf = binary.AppendUvarint(buf, uint64(m.initial))
	for _, row := range m.delta {
		for _, t := range row {
			buf = binary.AppendUvarint(buf, uint64(t))
		}
	}
	return sha256.Sum256(buf)
}
