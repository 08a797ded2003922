package noc

import (
	"fmt"
	"math/rand"
)

// Pattern selects packet destinations.
type Pattern int

const (
	// Uniform picks destinations uniformly at random.
	Uniform Pattern = iota
	// Permutation fixes one random destination per source.
	Permutation
	// Reversal sends node i to node order-1-i, a deterministic
	// adversarial pattern that stresses long paths.
	Reversal
	// HotSpot sends every packet to node 0.
	HotSpot
)

// String names the pattern for reports.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Permutation:
		return "permutation"
	case Reversal:
		return "reversal"
	case HotSpot:
		return "hotspot"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// destFor picks a destination for src under the pattern.
func destFor(p Pattern, rng *rand.Rand, perm []int, n, src int) int {
	switch p {
	case Uniform:
		return rng.Intn(n)
	case Permutation:
		return perm[src]
	case Reversal:
		return n - 1 - src
	case HotSpot:
		return 0
	}
	return src
}

// uniformRedraws bounds destination resampling; with at least one
// usable non-source node the expected redraw count is tiny, and a
// network that faulty deserves a skip, not a spin.
const uniformRedraws = 64

// DrawDest picks a usable destination distinct from src, or reports
// failure. Uniform resamples (a uniform draw hitting src or a faulty
// node carries no pattern intent, so redrawing preserves the configured
// injection rate); the deterministic patterns have exactly one choice
// per source, so an unusable choice is a skip the caller must count —
// silently suppressing it would quietly undershoot Config.Rate.
func DrawDest(p Pattern, rng *rand.Rand, perm []int, n, src int, usable func(int) bool) (int, bool) {
	if p == Uniform {
		for try := 0; try < uniformRedraws; try++ {
			if d := rng.Intn(n); d != src && usable(d) {
				return d, true
			}
		}
		return 0, false
	}
	d := destFor(p, rng, perm, n, src)
	if d == src || !usable(d) {
		return 0, false
	}
	return d, true
}
