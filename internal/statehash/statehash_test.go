package statehash

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

func sumOf(words []uint64) uint64 {
	h := New()
	for _, w := range words {
		h.U64(w)
	}
	return h.Sum()
}

func randomWords(r *rand.Rand, n int) []uint64 {
	words := make([]uint64, n)
	for i := range words {
		words[i] = r.Uint64()
	}
	return words
}

// TestFoldMethods: every fold method perturbs the stream, the scalar
// folds are one word each, and the stream is order-sensitive.
func TestFoldMethods(t *testing.T) {
	base := New().Sum()
	for name, fold := range map[string]func(*Hash){
		"U64":   func(h *Hash) { h.U64(1) },
		"U64-0": func(h *Hash) { h.U64(0) },
		"Int":   func(h *Hash) { h.Int(-1) },
		"Bytes": func(h *Hash) { h.Bytes(nil) },
	} {
		h := New()
		fold(h)
		if h.Sum() == base {
			t.Errorf("%s left the digest unchanged", name)
		}
	}
	for name, pair := range map[string][2]func(*Hash){
		"Int": {func(h *Hash) { h.Int(-2) }, func(h *Hash) { h.U64(^uint64(1)) }},
	} {
		a, b := New(), New()
		pair[0](a)
		pair[1](b)
		if a.Sum() != b.Sum() {
			t.Errorf("%s is not the one-word fold of its value", name)
		}
	}
	if sumOf([]uint64{1, 2}) == sumOf([]uint64{2, 1}) {
		t.Error("digest is order-insensitive")
	}
	h := New()
	h.U64(7)
	if h.Sum() != h.Sum() {
		t.Error("Sum disturbs the stream")
	}
}

// TestOrderSensitivity: swapping any two distinct words of a message
// changes the digest.
func TestOrderSensitivity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	words := randomWords(r, 64)
	want := sumOf(words)
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			words[i], words[j] = words[j], words[i]
			if sumOf(words) == want {
				t.Errorf("swapping words %d and %d left the digest unchanged", i, j)
			}
			words[i], words[j] = words[j], words[i]
		}
	}
}

// TestAvalanche: flipping any one input bit of a message flips each
// digest bit with probability 0.5 ± 0.05, whether the bit sits in the
// last word folded (only the finaliser is left to spread it) or earlier.
func TestAvalanche(t *testing.T) {
	const (
		msgWords = 4
		trials   = 4000
	)
	r := rand.New(rand.NewSource(1))
	var flips [msgWords * 64][64]int
	for n := 0; n < trials; n++ {
		words := randomWords(r, msgWords)
		// Half the trials use sparse messages, as packed state words are.
		if n%2 == 1 {
			for i := range words {
				words[i] &= 1 << uint(r.Intn(64))
			}
		}
		base := sumOf(words)
		for in := range flips {
			words[in/64] ^= 1 << uint(in%64)
			d := base ^ sumOf(words)
			words[in/64] ^= 1 << uint(in%64)
			for d != 0 {
				flips[in][bits.TrailingZeros64(d)]++
				d &= d - 1
			}
		}
	}
	for in := range flips {
		for out, n := range flips[in] {
			if p := float64(n) / trials; p < 0.45 || p > 0.55 {
				t.Errorf("input bit %d (word %d) flips output bit %d with probability %.3f", in%64, in/64, out, p)
			}
		}
	}
}

// TestBitDifferencesNeverCollide folds a 64-word message and every
// message at Hamming distance one and two from it: all 1 + 4096 +
// 4096·4095/2 digests must be distinct. (Word-wise FNV-1a fails this:
// the top bit of one word cancels against the top bit of the next.)
// -short checks the distance-two pairs of adjacent words only, where a
// weak mixer cancels.
func TestBitDifferencesNeverCollide(t *testing.T) {
	const msgWords = 64
	for _, msg := range [][]uint64{
		make([]uint64, msgWords), // all zero: the sparsest state there is
		randomWords(rand.New(rand.NewSource(2)), msgWords),
	} {
		digests := []uint64{sumOf(msg)}
		for i := 0; i < msgWords*64; i++ {
			msg[i/64] ^= 1 << uint(i%64)
			digests = append(digests, sumOf(msg))
			last := msgWords * 64
			if testing.Short() {
				last = min(last, (i/64+2)*64)
			}
			for j := i + 1; j < last; j++ {
				msg[j/64] ^= 1 << uint(j%64)
				digests = append(digests, sumOf(msg))
				msg[j/64] ^= 1 << uint(j%64)
			}
			msg[i/64] ^= 1 << uint(i%64)
		}
		slices.Sort(digests)
		for i := 1; i < len(digests); i++ {
			if digests[i] == digests[i-1] {
				t.Fatalf("two of %d messages within two bit flips of each other share digest %#x", len(digests), digests[i])
			}
		}
	}
}

// referenceBytes is Bytes written independently, one word at a time:
// the length, then little-endian words of the zero-padded content.
func referenceBytes(h *Hash, p []byte) {
	h.U64(uint64(len(p)))
	padded := make([]byte, (len(p)+7)/8*8)
	copy(padded, p)
	for i := 0; i < len(padded); i += 8 {
		h.U64(binary.LittleEndian.Uint64(padded[i:]))
	}
}

// TestBytesMatchesReference: at every length 0–33 and every split of
// that length into two consecutive folds, Bytes equals the word-by-word
// reference; and no two splits of the same bytes collide,
// which is what folding the length buys.
func TestBytesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	buf := make([]byte, 33)
	r.Read(buf)
	for n := 0; n <= len(buf); n++ {
		p := buf[:n]
		seen := map[uint64]int{}
		for k := 0; k <= n; k++ {
			got, want := New(), New()
			got.Bytes(p[:k])
			got.Bytes(p[k:])
			referenceBytes(want, p[:k])
			referenceBytes(want, p[k:])
			if got.Sum() != want.Sum() {
				t.Errorf("length %d split %d: Bytes %#x, reference %#x", n, k, got.Sum(), want.Sum())
			}
			if prev, dup := seen[got.Sum()]; dup {
				t.Errorf("length %d: splits %d and %d digest alike", n, prev, k)
			}
			seen[got.Sum()] = k
		}
		one := New()
		one.Bytes(p)
		if one.Sum() != Bytes(p) {
			t.Errorf("length %d: streaming and one-shot digests disagree", n)
		}
	}
	// Trailing zero bytes are content, not padding.
	if Bytes([]byte{1}) == Bytes([]byte{1, 0}) {
		t.Error("a trailing zero byte left the digest unchanged")
	}
}

var sink uint64

func BenchmarkU64(b *testing.B) {
	h := New()
	for i := 0; i < b.N; i++ {
		h.U64(uint64(i))
	}
	sink = h.Sum()
}

func BenchmarkBytesPage(b *testing.B) {
	p := make([]byte, 4096)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		sink = Bytes(p)
	}
}
