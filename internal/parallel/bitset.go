// Package parallel provides the low-level concurrency primitives used by the
// two-stage search: atomic bitsets for the FIdentifier / CIdentifier arrays,
// a dynamically scheduled worker pool mirroring OpenMP's dynamic schedule,
// and lock-free byte stores for the node-keyword matrix.
//
// The paper's lock-free argument (Theorem V.2) relies on all concurrent
// writes to a location writing the same value (1 into FIdentifier, l+1 into
// M). In Go, concurrent plain writes of identical values are still data races
// under the memory model, so the bitset and matrix use atomic operations with
// relaxed semantics via sync/atomic; the level barrier (fork/join between
// phases) provides the required happens-before edges between levels.
package parallel

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

const wordBits = 64

// Bitset is a fixed-size bitset safe for concurrent Set/Get. All mutating
// operations other than Set/Clear assume exclusive access (they are called
// only between phases, under the level barrier). A Bitset must not be
// copied: a copy aliases the shared word storage.
//
//wikisearch:nocopy
type Bitset struct {
	// words is written concurrently by all workers during a phase.
	//wikisearch:atomic
	words []uint64
	n     int
}

// NewBitset returns a Bitset capable of holding n bits, all zero.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits the set holds.
func (b *Bitset) Len() int { return b.n }

// Set atomically sets bit i. Safe for concurrent use.
//
//wikisearch:hotpath
func (b *Bitset) Set(i int) {
	atomic.OrUint64(&b.words[i/wordBits], 1<<(uint(i)%wordBits))
}

// SetTouch atomically sets bit i and reports the bit's word index plus
// whether this call was the first to touch a previously-empty word. The
// atomic OR linearizes concurrent setters, so for any word exactly one
// caller observes the empty→non-empty transition — per-worker touched-word
// lists built from it partition the dirty words with no duplicates, letting
// frontier extraction and reset skip clean words entirely. Safe for
// concurrent use.
//
//wikisearch:hotpath
func (b *Bitset) SetTouch(i int) (word int, first bool) {
	wi := i / wordBits
	bit := uint64(1) << (uint(i) % wordBits)
	// Saturated regions re-mark already-flagged nodes constantly; a plain
	// load there avoids the contended read-modify-write. Whoever performed
	// the winning OR still gets (and keeps) the first-touch credit.
	if atomic.LoadUint64(&b.words[wi])&bit != 0 {
		return wi, false
	}
	old := atomic.OrUint64(&b.words[wi], bit)
	return wi, old == 0
}

// DrainWord appends the indices of the set bits of word wi to dst in
// ascending order and clears the word. Requires exclusive access. Draining
// exactly the touched words in ascending word order reproduces AppendSet's
// canonical ascending frontier without scanning the whole set.
//
//wikisearch:hotpath
//wikisearch:exclusive called between phases under the level barrier
func (b *Bitset) DrainWord(wi int, dst []int32) []int32 {
	w := b.words[wi]
	b.words[wi] = 0
	base := int32(wi * wordBits)
	for w != 0 {
		tz := bits.TrailingZeros64(w)
		dst = append(dst, base+int32(tz))
		w &= w - 1
	}
	return dst
}

// Clear atomically clears bit i. Safe for concurrent use.
//
//wikisearch:hotpath
func (b *Bitset) Clear(i int) {
	atomic.AndUint64(&b.words[i/wordBits], ^(uint64(1) << (uint(i) % wordBits)))
}

// Get reports whether bit i is set. Safe for concurrent use with Set/Clear
// on other bits; reads of a concurrently-written bit are linearized by the
// atomic load.
//
//wikisearch:hotpath
func (b *Bitset) Get(i int) bool {
	return atomic.LoadUint64(&b.words[i/wordBits])&(1<<(uint(i)%wordBits)) != 0
}

// Reset zeroes the whole set. Requires exclusive access.
//
//wikisearch:exclusive callers hold the only reference between phases
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Resize re-dimensions the set to hold n bits, all zero, reusing the backing
// array when its capacity suffices (the per-query state pool relies on this
// being allocation-free at steady state). A backing array that must grow
// grows like append, with headroom, so a graph that gains nodes under live
// mutation does not reallocate on every publish. Requires exclusive access.
//
//wikisearch:exclusive callers hold the only reference during (re)init
func (b *Bitset) Resize(n int) {
	words := (n + wordBits - 1) / wordBits
	b.words = slices.Grow(b.words[:0], words)[:words]
	clear(b.words)
	b.n = n
}

// Count returns the number of set bits. Requires exclusive access.
//
//wikisearch:exclusive called between phases under the level barrier
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AppendSet appends the indices of all set bits to dst and returns it.
// Requires exclusive access. This is the sequential frontier-enqueue step of
// Algorithm 1 ("on CPU locked writing is so expensive and the fastest way is
// to enqueue frontiers in a sequential manner").
//
//wikisearch:exclusive called between phases under the level barrier
func (b *Bitset) AppendSet(dst []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi * wordBits)
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, base+int32(tz))
			w &= w - 1
		}
	}
	return dst
}

// ForEachSet calls fn for every set bit in ascending order. Requires
// exclusive access.
//
//wikisearch:exclusive called between phases under the level barrier
func (b *Bitset) ForEachSet(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}
