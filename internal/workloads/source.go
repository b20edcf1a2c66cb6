package workloads

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (the rngSource
// behind rand.NewSource; Go's rng.go, BSD-style licence), ported so that its
// 4.9 KB of state can live inline in a Generator and be seeded fast. Uint64
// and Int63 are the stdlib's verbatim, so with rand.New on top every Float64
// and Intn draw is the one rand.NewSource(seed) gives; source_test.go holds
// math/rand to that as the oracle.
//
// Seeding is where the time went: the stdlib runs the Park–Miller chain
// x[n+1] = 48271·x[n] mod (2³¹−1) for 1 841 serial Schrage-division steps,
// two thirds of sim.NewSystem's CPU for its 56 generators. Seed computes the
// same chain with a Mersenne reduction, as six interleaved chains.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// mersenne is the Park–Miller modulus 2³¹−1; pmMul its multiplier.
	mersenne = 1<<31 - 1
	pmMul    = 48271
	pmMul3   = pmMul * pmMul % mersenne * pmMul % mersenne
	pmMul6   = pmMul3 * pmMul3 % mersenne // six chain steps at once
	// seedWarmup is how many chain steps the stdlib discards before the
	// first register slot.
	seedWarmup = 20
)

// rngCooked is math/rand's table of the same name, which every seeding XORs
// into the register. It is recovered at start-up from the stdlib's own first
// rngLen draws rather than copied as 607 literals:
// each draw overwrites exactly one register slot, so the draws can be
// unwound to the initial register, and XOR-ing out the chain words of the
// seed leaves the table.
var rngCooked = func() (cooked [rngLen]int64) {
	const seed = 1
	std := rand.NewSource(seed).(rand.Source64)
	var out [rngLen + 1]int64 // out[k] is draw k, 1-based
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(std.Uint64())
	}
	// Draw k writes slot feed = (rngLen-rngTap-k) mod rngLen with its old
	// value plus slot tap = rngLen-k, which draw k-rngTap wrote when
	// k > rngTap and still holds its initial value otherwise.
	var reg [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		reg[(2*rngLen-rngTap-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		reg[rngLen-rngTap-k] = out[k] - reg[rngLen-k]
	}
	var chain source
	chain.seed(seed, &[rngLen]int64{})
	for i := range cooked {
		cooked[i] = reg[i] ^ chain.vec[i]
	}
	return cooked
}()

// Seed initialises the generator to the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) { s.seed(seed, &rngCooked) }

// seed resets the taps and fills the register from the Park–Miller chain of
// the seed: slot i is x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i],
// where x[0] is the seed reduced into [1, 2³¹−1) as the stdlib reduces it.
// Slot i+2 starts six steps after slot i, so six chains advanced by 48271⁶
// fill two slots per iteration with no dependence between their words; one
// serial chain waits out a multiply and two folds per word.
func (s *source) seed(seed int64, cooked *[rngLen]int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= mersenne
	if seed < 0 {
		seed += mersenne
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := 0; i < seedWarmup; i++ {
		x = mulMod(x, pmMul)
	}
	a := mulMod(x, pmMul) // slot i's words
	b := mulMod(a, pmMul)
	c := mulMod(b, pmMul)
	d := mulMod(c, pmMul) // slot i+1's
	e := mulMod(d, pmMul)
	f := mulMod(e, pmMul)
	i := 0
	for ; i+1 < rngLen; i += 2 {
		s.vec[i] = int64(a<<40^b<<20^c) ^ cooked[i]
		s.vec[i+1] = int64(d<<40^e<<20^f) ^ cooked[i+1]
		a, b, c = mulMod(a, pmMul6), mulMod(b, pmMul6), mulMod(c, pmMul6)
		d, e, f = mulMod(d, pmMul6), mulMod(e, pmMul6), mulMod(f, pmMul6)
	}
	s.vec[i] = int64(a<<40^b<<20^c) ^ cooked[i] // rngLen is odd
}

// mulMod returns a·x mod 2³¹−1 for a, x in [1, 2³¹−1). Two folds of the
// Mersenne reduction leave a value in [0, 2³¹−1] congruent to the product;
// the product of two units of the prime field is never 0 mod 2³¹−1, so that
// value is already canonical.
func mulMod(a, x uint64) uint64 {
	p := a * x
	p = p&mersenne + p>>31
	return p&mersenne + p>>31
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a non-negative pseudo-random 64-bit integer as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
