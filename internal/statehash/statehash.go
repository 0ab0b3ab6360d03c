// Package statehash provides the streaming state digest used by the
// adaptive campaign engine's convergence exit: every simulation model
// folds its complete architectural and microarchitectural state into a
// Hash, and the replay engine compares the faulty digest against the
// golden digest recorded at the same cycle. Two digests matching is
// (modulo 64-bit collisions) evidence that the corrupted state has
// reconverged with the fault-free run, so the replay's remaining future
// is already known.
//
// The digest is word-parallel: one 64-bit word per fold step, so callers
// pack small fields (booleans, register names, tags) into words before
// folding. One step (the MurmurHash3 x64 block step on one lane) is
//
//	w = rotl(w*c1, 31) * c2        // spread the word; off the state's dependency chain
//	s = rotl(s^w, 27)*5 + c3       // three cheap operations per word on the chain
//
// Both lines are bijections, so the step permutes the state for a fixed
// word and the word's image for a fixed state: two streams that differ
// in exactly one word never collide. The two multiplies with a rotate
// between them are what a bare multiply lacks: (s^w)*c alone — FNV-1a
// on words — only ever moves a difference upward, so a flipped top bit
// of one word stays a lone top bit of the state and the same flip in the
// next word cancels it, and a single xor-shift after the multiply only
// copies it down once (bits 63 and 31 of the next word cancel it
// instead; the package's distance-two test finds both). Sum finishes
// with a full avalanche. Digests are process-local: nothing persists or
// transmits one, so the format may change between builds.
//
// The hash is deliberately order-sensitive: callers must fold state
// elements in a stable declaration order so that a golden instance and a
// replayed instance of the same design produce comparable digests.
package statehash

import (
	"encoding/binary"
	"math/bits"
)

const (
	seed = 0x9e3779b97f4a7c15 // 2^64 / golden ratio
	c1   = 0x87c37b91114253d5 // MurmurHash3 x64 block constants
	c2   = 0x4cf5ad432745937f
	c3   = 0x52dce729
)

// Hash is a streaming 64-bit digest of a sequence of 64-bit words.
type Hash struct {
	sum uint64
}

// New returns a Hash of the empty sequence.
func New() *Hash { return &Hash{sum: seed} }

// U64 folds one 64-bit word.
func (h *Hash) U64(v uint64) {
	v *= c1
	v = bits.RotateLeft64(v, 31)
	v *= c2
	s := bits.RotateLeft64(h.sum^v, 27)
	h.sum = s*5 + c3
}

// Int folds an int as one word.
func (h *Hash) Int(v int) { h.U64(uint64(int64(v))) }

// Bytes folds a byte slice: its length, then its content eight bytes
// (one little-endian word) per step, the last word zero-padded. Folding
// the length first makes consecutive variable-length folds unambiguous
// — ("ab","c") and ("a","bc") digest differently — and the padding
// harmless.
func (h *Hash) Bytes(p []byte) {
	h.U64(uint64(len(p)))
	for ; len(p) >= 8; p = p[8:] {
		h.U64(binary.LittleEndian.Uint64(p))
	}
	if len(p) > 0 {
		var tail [8]byte
		copy(tail[:], p)
		h.U64(binary.LittleEndian.Uint64(tail[:]))
	}
}

// Sum returns the digest of everything folded so far: the running state
// through a final avalanche (the splitmix64 finaliser), so every folded
// bit reaches every digest bit. It does not disturb the stream.
func (h *Hash) Sum() uint64 {
	s := h.sum
	s = (s ^ s>>30) * 0xbf58476d1ce4e5b9
	s = (s ^ s>>27) * 0x94d049bb133111eb
	return s ^ s>>31
}

// Bytes returns the digest of p in one call.
func Bytes(p []byte) uint64 {
	h := New()
	h.Bytes(p)
	return h.Sum()
}
