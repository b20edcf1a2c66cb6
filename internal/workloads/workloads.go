// Package workloads provides the 29 benchmark profiles used in the paper's
// evaluation (Rodinia [42] + Nvidia CUDA SDK [43]), recast as parameterized
// synthetic workloads.
//
// Substitution note (DESIGN.md §3): real CUDA binaries cannot run here, so
// each benchmark is a profile — memory intensity, read fraction, footprint,
// stride/random mix, burstiness — that drives a deterministic per-PE
// instruction/address generator. The generated streams then exercise real
// L1/L2 caches, MSHRs, the NoC, and HBM, reproducing the M2F2M traffic
// shape and the per-benchmark contrast the evaluation depends on.
package workloads

import (
	"fmt"
	"math/rand"
)

// Profile characterizes one benchmark's memory behaviour.
type Profile struct {
	Name string

	// MemRatio is the fraction of instructions that are (coalesced) memory
	// accesses; the rest are compute, which advance time without traffic.
	MemRatio float64

	// ReadFrac is the fraction of memory accesses that are reads. Typical
	// throughput workloads are read-dominant (§2.2).
	ReadFrac float64

	// FootprintLines is the per-PE working-set size in cache lines; it
	// determines L1/L2 hit rates against the fixed cache capacities.
	FootprintLines int

	// SharedFrac is the probability an access targets the globally shared
	// region (visible to all PEs) rather than the PE-private region.
	SharedFrac float64

	// SeqProb is the probability the next access continues a sequential /
	// strided run; otherwise the generator jumps to a random line.
	SeqProb float64

	// StrideLines is the stride of sequential runs, in lines.
	StrideLines int

	// Burstiness in [0,1): probability of issuing back-to-back memory
	// accesses with no compute gap, modelling divergent/bursty kernels.
	Burstiness float64

	// ComputeGap is the mean compute cycles between memory instructions
	// when not bursting.
	ComputeGap int

	// DependentFrac is the probability that a memory access has a dependent
	// consumer close behind it, stalling the PE until the reply returns —
	// the latency sensitivity of real warps.
	DependentFrac float64

	// DivergenceFrac is the probability a (warp-level) memory instruction
	// fails to coalesce into one cache line and instead touches several
	// distinct lines; the generator expands it into a zero-gap burst of
	// 2–4 accesses, the way divergent kernels (bfs, mummergpu) hammer the
	// memory system.
	DivergenceFrac float64

	// Instructions is the per-PE instruction budget at reference scale
	// (scaled by the harness to trade accuracy for runtime).
	Instructions int
}

// Validate reports malformed profiles.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workloads: empty name")
	}
	if p.MemRatio <= 0 || p.MemRatio > 1 {
		return fmt.Errorf("workloads %s: MemRatio %f outside (0,1]", p.Name, p.MemRatio)
	}
	if p.ReadFrac < 0 || p.ReadFrac > 1 {
		return fmt.Errorf("workloads %s: ReadFrac outside [0,1]", p.Name)
	}
	if p.FootprintLines < 1 {
		return fmt.Errorf("workloads %s: FootprintLines < 1", p.Name)
	}
	if p.SeqProb < 0 || p.SeqProb > 1 || p.SharedFrac < 0 || p.SharedFrac > 1 ||
		p.Burstiness < 0 || p.Burstiness >= 1 {
		return fmt.Errorf("workloads %s: probability out of range", p.Name)
	}
	if p.StrideLines < 1 || p.ComputeGap < 0 || p.Instructions < 1 {
		return fmt.Errorf("workloads %s: bad stride/gap/instructions", p.Name)
	}
	if p.DependentFrac < 0 || p.DependentFrac > 1 {
		return fmt.Errorf("workloads %s: DependentFrac out of range", p.Name)
	}
	if p.DivergenceFrac < 0 || p.DivergenceFrac > 1 {
		return fmt.Errorf("workloads %s: DivergenceFrac out of range", p.Name)
	}
	return nil
}

// Suite returns the 29 benchmarks of the paper's evaluation (names from
// Rodinia and the CUDA SDK), with profiles chosen to span the observed
// spectrum: memory-bound irregular (bfs, kmeans), streaming (streamcluster,
// vectorAdd), bursty sorting/scan kernels, and compute-bound outliers
// (myocyte, gaussian) whose latency is dominated by non-queuing time.
func Suite() []Profile {
	const L = 1 // shorthand below keeps gofmt tables narrow
	_ = L
	ps := []Profile{
		// Rodinia.
		{Name: "backprop", MemRatio: 0.32, ReadFrac: 0.72, FootprintLines: 5000, SharedFrac: 0.35, SeqProb: 0.80, StrideLines: 1, Burstiness: 0.30, ComputeGap: 4, Instructions: 1600, DependentFrac: 0.22},
		{Name: "bfs", MemRatio: 0.45, ReadFrac: 0.85, FootprintLines: 16000, SharedFrac: 0.65, SeqProb: 0.25, StrideLines: 1, Burstiness: 0.45, ComputeGap: 3, Instructions: 1500, DependentFrac: 0.38, DivergenceFrac: 0.30},
		{Name: "b+tree", MemRatio: 0.38, ReadFrac: 0.90, FootprintLines: 12000, SharedFrac: 0.55, SeqProb: 0.35, StrideLines: 2, Burstiness: 0.35, ComputeGap: 4, Instructions: 1500, DependentFrac: 0.40, DivergenceFrac: 0.25},
		{Name: "cfd", MemRatio: 0.40, ReadFrac: 0.78, FootprintLines: 9000, SharedFrac: 0.40, SeqProb: 0.70, StrideLines: 1, Burstiness: 0.40, ComputeGap: 3, Instructions: 1700, DependentFrac: 0.25},
		{Name: "dwt2d", MemRatio: 0.35, ReadFrac: 0.75, FootprintLines: 6000, SharedFrac: 0.30, SeqProb: 0.75, StrideLines: 2, Burstiness: 0.30, ComputeGap: 4, Instructions: 1600, DependentFrac: 0.22},
		{Name: "gaussian", MemRatio: 0.12, ReadFrac: 0.80, FootprintLines: 1500, SharedFrac: 0.25, SeqProb: 0.85, StrideLines: 1, Burstiness: 0.05, ComputeGap: 12, Instructions: 1800, DependentFrac: 0.30},
		{Name: "heartwall", MemRatio: 0.42, ReadFrac: 0.82, FootprintLines: 11000, SharedFrac: 0.50, SeqProb: 0.55, StrideLines: 1, Burstiness: 0.50, ComputeGap: 3, Instructions: 1500, DependentFrac: 0.28, DivergenceFrac: 0.10},
		{Name: "hotspot", MemRatio: 0.30, ReadFrac: 0.76, FootprintLines: 4000, SharedFrac: 0.30, SeqProb: 0.80, StrideLines: 1, Burstiness: 0.25, ComputeGap: 5, Instructions: 1700, DependentFrac: 0.22},
		{Name: "hybridsort", MemRatio: 0.44, ReadFrac: 0.70, FootprintLines: 14000, SharedFrac: 0.55, SeqProb: 0.45, StrideLines: 4, Burstiness: 0.50, ComputeGap: 3, Instructions: 1500, DependentFrac: 0.30, DivergenceFrac: 0.15},
		{Name: "kmeans", MemRatio: 0.50, ReadFrac: 0.88, FootprintLines: 20000, SharedFrac: 0.70, SeqProb: 0.50, StrideLines: 1, Burstiness: 0.55, ComputeGap: 2, Instructions: 1400, DependentFrac: 0.30, DivergenceFrac: 0.10},
		{Name: "lavaMD", MemRatio: 0.28, ReadFrac: 0.80, FootprintLines: 5000, SharedFrac: 0.35, SeqProb: 0.65, StrideLines: 1, Burstiness: 0.25, ComputeGap: 6, Instructions: 1700, DependentFrac: 0.25},
		{Name: "leukocyte", MemRatio: 0.25, ReadFrac: 0.83, FootprintLines: 4500, SharedFrac: 0.30, SeqProb: 0.70, StrideLines: 1, Burstiness: 0.20, ComputeGap: 7, Instructions: 1700, DependentFrac: 0.25},
		{Name: "lud", MemRatio: 0.33, ReadFrac: 0.74, FootprintLines: 6000, SharedFrac: 0.45, SeqProb: 0.65, StrideLines: 2, Burstiness: 0.30, ComputeGap: 5, Instructions: 1600, DependentFrac: 0.30},
		{Name: "mummergpu", MemRatio: 0.46, ReadFrac: 0.92, FootprintLines: 18000, SharedFrac: 0.65, SeqProb: 0.30, StrideLines: 1, Burstiness: 0.45, ComputeGap: 3, Instructions: 1400, DependentFrac: 0.42, DivergenceFrac: 0.35},
		{Name: "myocyte", MemRatio: 0.08, ReadFrac: 0.78, FootprintLines: 900, SharedFrac: 0.15, SeqProb: 0.85, StrideLines: 1, Burstiness: 0.02, ComputeGap: 16, Instructions: 1800, DependentFrac: 0.35},
		{Name: "nn", MemRatio: 0.36, ReadFrac: 0.90, FootprintLines: 8000, SharedFrac: 0.45, SeqProb: 0.60, StrideLines: 1, Burstiness: 0.35, ComputeGap: 4, Instructions: 1600, DependentFrac: 0.35},
		{Name: "nw", MemRatio: 0.37, ReadFrac: 0.72, FootprintLines: 7000, SharedFrac: 0.40, SeqProb: 0.70, StrideLines: 2, Burstiness: 0.35, ComputeGap: 4, Instructions: 1600, DependentFrac: 0.30},
		{Name: "particlefilter", MemRatio: 0.43, ReadFrac: 0.84, FootprintLines: 13000, SharedFrac: 0.60, SeqProb: 0.45, StrideLines: 1, Burstiness: 0.50, ComputeGap: 3, Instructions: 1500, DependentFrac: 0.30, DivergenceFrac: 0.15},
		{Name: "pathfinder", MemRatio: 0.34, ReadFrac: 0.80, FootprintLines: 6500, SharedFrac: 0.40, SeqProb: 0.75, StrideLines: 1, Burstiness: 0.30, ComputeGap: 4, Instructions: 1600, DependentFrac: 0.25},
		{Name: "srad", MemRatio: 0.39, ReadFrac: 0.77, FootprintLines: 9500, SharedFrac: 0.45, SeqProb: 0.70, StrideLines: 1, Burstiness: 0.40, ComputeGap: 3, Instructions: 1600, DependentFrac: 0.25},
		{Name: "streamcluster", MemRatio: 0.52, ReadFrac: 0.90, FootprintLines: 24000, SharedFrac: 0.75, SeqProb: 0.60, StrideLines: 1, Burstiness: 0.55, ComputeGap: 2, Instructions: 1400, DependentFrac: 0.32},
		// CUDA SDK.
		{Name: "blackScholes", MemRatio: 0.35, ReadFrac: 0.70, FootprintLines: 8000, SharedFrac: 0.40, SeqProb: 0.85, StrideLines: 1, Burstiness: 0.35, ComputeGap: 4, Instructions: 1600, DependentFrac: 0.18},
		{Name: "convolutionSep", MemRatio: 0.41, ReadFrac: 0.82, FootprintLines: 10000, SharedFrac: 0.45, SeqProb: 0.80, StrideLines: 1, Burstiness: 0.40, ComputeGap: 3, Instructions: 1600, DependentFrac: 0.20},
		{Name: "fastWalshTrans", MemRatio: 0.48, ReadFrac: 0.76, FootprintLines: 16000, SharedFrac: 0.60, SeqProb: 0.55, StrideLines: 8, Burstiness: 0.60, ComputeGap: 2, Instructions: 1400, DependentFrac: 0.25},
		{Name: "histogram", MemRatio: 0.40, ReadFrac: 0.68, FootprintLines: 9000, SharedFrac: 0.55, SeqProb: 0.40, StrideLines: 1, Burstiness: 0.40, ComputeGap: 3, Instructions: 1500, DependentFrac: 0.28, DivergenceFrac: 0.20},
		{Name: "matrixMul", MemRatio: 0.30, ReadFrac: 0.85, FootprintLines: 5000, SharedFrac: 0.35, SeqProb: 0.80, StrideLines: 1, Burstiness: 0.25, ComputeGap: 5, Instructions: 1700, DependentFrac: 0.25},
		{Name: "monteCarlo", MemRatio: 0.44, ReadFrac: 0.88, FootprintLines: 15000, SharedFrac: 0.60, SeqProb: 0.35, StrideLines: 1, Burstiness: 0.50, ComputeGap: 3, Instructions: 1500, DependentFrac: 0.32, DivergenceFrac: 0.20},
		{Name: "scan", MemRatio: 0.47, ReadFrac: 0.74, FootprintLines: 15000, SharedFrac: 0.60, SeqProb: 0.70, StrideLines: 4, Burstiness: 0.60, ComputeGap: 2, Instructions: 1400, DependentFrac: 0.28},
		{Name: "sortingNetworks", MemRatio: 0.49, ReadFrac: 0.72, FootprintLines: 17000, SharedFrac: 0.65, SeqProb: 0.50, StrideLines: 8, Burstiness: 0.60, ComputeGap: 2, Instructions: 1400, DependentFrac: 0.30},
	}
	return ps
}

// Uniform returns the synthetic uniform-random traffic profile: every access
// jumps to a random line in a large shared footprint, with no sequential runs
// and no bursts. It is not part of the paper's 29-benchmark suite — it is the
// classic NoC stress pattern used by determinism cross-checks and benchmarks
// that want traffic spread evenly over the mesh rather than shaped by a
// kernel's locality.
func Uniform() Profile {
	return Profile{
		Name:           "uniform",
		MemRatio:       0.45,
		ReadFrac:       0.85,
		FootprintLines: 32000,
		SharedFrac:     0.90,
		SeqProb:        0,
		StrideLines:    1,
		ComputeGap:     3,
		Instructions:   1500,
		DependentFrac:  0.25,
	}
}

// ByName returns the named profile from the suite, or the synthetic
// "uniform" pattern (see Uniform).
func ByName(name string) (Profile, error) {
	if name == "uniform" {
		return Uniform(), nil
	}
	for _, p := range Suite() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Op is one generated instruction: Gap compute cycles followed by an
// optional memory access.
type Op struct {
	Gap       int    // compute cycles before the access issues
	IsMem     bool   // false = pure compute instruction
	Addr      uint64 // line-aligned byte address (valid when IsMem)
	Write     bool
	Dependent bool // a consumer needs the data: the PE stalls until reply
}

// Generator produces a deterministic instruction stream for one PE.
type Generator struct {
	p        Profile
	rng      *rand.Rand // draws from src
	pe       int
	lastLine uint64
	issued   int
	total    int

	// burst holds the pending divergent accesses, burst[burstAt:burstN],
	// emitted before new ops. A fixed array popped by index: bursts only
	// start once the last one drained, and never reallocate.
	burst           [maxDivergentExtra]Op
	burstAt, burstN int

	// src is the stream's state, inline and last: pointer-free, so the
	// collector never scans its 4.9 KB.
	src source
}

// maxDivergentExtra bounds the extra accesses of one divergent instruction.
const maxDivergentExtra = 3

// LineBytes is the cache line size of the generated address stream.
const LineBytes = 128

// sharedBase is the byte address where the globally shared region starts.
const sharedBase = uint64(1) << 40

// NewGenerator builds a generator for PE pe with the given instruction
// budget (use p.Instructions scaled by the harness). Its stream is the one
// rand.New(rand.NewSource(seed ^ pe·0x7F4A7C159E3779B9)) would draw.
func (p Profile) NewGenerator(pe int, instructions int, seed int64) *Generator {
	g := &Generator{p: p, pe: pe, total: instructions}
	g.src.Seed(seed ^ int64(pe)*0x7F4A7C15_9E37_79B9)
	g.rng = rand.New(&g.src)
	return g
}

// Remaining returns the number of instructions not yet generated.
func (g *Generator) Remaining() int { return g.total - g.issued }

// Done reports whether the budget is exhausted.
func (g *Generator) Done() bool { return g.issued >= g.total }

// Next produces the next instruction. Calling Next after Done returns pure
// compute no-ops.
func (g *Generator) Next() Op {
	if g.burstAt < g.burstN {
		op := g.burst[g.burstAt]
		if g.burstAt++; g.burstAt == g.burstN {
			g.burstAt, g.burstN = 0, 0
		}
		return op
	}
	if g.Done() {
		return Op{Gap: 1}
	}
	g.issued++
	if g.rng.Float64() >= g.p.MemRatio {
		return Op{Gap: 1}
	}
	gap := 0
	if g.rng.Float64() >= g.p.Burstiness {
		// Exponential-ish compute gap around the mean.
		gap = 1 + g.rng.Intn(2*g.p.ComputeGap+1)
	}
	var line uint64
	if g.rng.Float64() < g.p.SeqProb && g.lastLine != 0 {
		line = g.lastLine + uint64(g.p.StrideLines)
	} else {
		line = uint64(g.rng.Intn(g.p.FootprintLines))
	}
	line %= uint64(g.p.FootprintLines)
	g.lastLine = line
	var addr uint64
	if g.rng.Float64() < g.p.SharedFrac {
		addr = sharedBase + line*LineBytes
	} else {
		// PE-private region: distinct address spaces per PE.
		addr = (uint64(g.pe+1) << 28) | (line * LineBytes)
	}
	write := g.rng.Float64() >= g.p.ReadFrac
	op := Op{
		Gap:       gap,
		IsMem:     true,
		Addr:      addr,
		Write:     write,
		Dependent: !write && g.rng.Float64() < g.p.DependentFrac,
	}
	// Divergence: the warp's lanes touch several distinct lines; emit the
	// extras as a zero-gap burst of additional same-kind accesses. Bursts
	// ride on the same instruction budget slot (they model one instruction).
	if g.p.DivergenceFrac > 0 && g.rng.Float64() < g.p.DivergenceFrac {
		extra := 1 + g.rng.Intn(maxDivergentExtra)
		for k := 0; k < extra; k++ {
			line := uint64(g.rng.Intn(g.p.FootprintLines))
			var a uint64
			if g.rng.Float64() < g.p.SharedFrac {
				a = sharedBase + line*LineBytes
			} else {
				a = (uint64(g.pe+1) << 28) | (line * LineBytes)
			}
			g.burst[g.burstN] = Op{IsMem: true, Addr: a, Write: op.Write}
			g.burstN++
		}
	}
	return op
}
