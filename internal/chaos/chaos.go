// Package chaos is a deterministic, seeded fault injector for the
// evaluation fleet. It wires behind the seams the system already has —
// the store.Store interface (I/O errors, torn writes, slow reads), the
// worker/coordinator HTTP transport (dropped, delayed, duplicated, and
// 5xx-rewritten requests via http.RoundTripper), and a skewable clock —
// without touching the simulator hot loop. It depends only on the
// standard library and the store interface it wraps.
//
// Determinism: every fault decision is drawn from one seeded PRNG, so a
// scenario's fault *rates* reproduce exactly for a given seed. Under
// concurrency the interleaving of draws follows goroutine scheduling,
// but the fleet's convergence property (byte-identical results) holds
// regardless of which requests a given draw lands on — that is what the
// chaos suite asserts.
package chaos

import (
	"math/rand"
	"sort"
	"sync"
)

// Injector is a seeded source of fault decisions shared by the store,
// transport, and clock wrappers. Create one per scenario with New.
type Injector struct {
	seed int64

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]int64
}

// New returns an injector whose fault decisions derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
		counts: map[string]int64{},
	}
}

// Seed returns the seed the injector was created with.
func (in *Injector) Seed() int64 { return in.seed }

// Fault records one injected fault of the given kind. The wrappers call
// it; tests may call it directly to record out-of-band faults such as
// process kills.
func (in *Injector) Fault(kind string) {
	in.mu.Lock()
	in.counts[kind]++
	in.mu.Unlock()
}

// Counts returns a snapshot of injected-fault counts by kind.
func (in *Injector) Counts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Total returns the total number of injected faults across all kinds.
func (in *Injector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.counts {
		n += v
	}
	return n
}

// Kinds returns the sorted fault kinds injected so far.
func (in *Injector) Kinds() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	kinds := make([]string, 0, len(in.counts))
	for k := range in.counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// roll draws one fault decision: true with probability p.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v < p
}
