package clock

// SplitMix is a SplitMix64 stream, and its value is the stream's state:
// SplitMix(seed) starts one. Eight bytes where a math/rand.Rand costs
// ~5 KB, paid once per link direction, supervisor and seeded station.
// It is the one seeded stream of the runtime: link fates, restart
// jitter, seeded bit sources and the virtual clock's Seed all draw
// from it.
type SplitMix uint64

// splitMixGamma is the SplitMix64 increment, 2⁶⁴ over the golden ratio.
const splitMixGamma = 0x9e3779b97f4a7c15

func splitMixFinish(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next advances the stream and returns its next 64 bits.
func (r *SplitMix) Next() uint64 {
	*r += splitMixGamma
	return splitMixFinish(uint64(*r))
}

// Float64 returns a uniform draw in [0, 1).
func (r *SplitMix) Float64() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Int63n returns a draw in [0, n). The modulo bias is immaterial for
// delay-sized n.
func (r *SplitMix) Int63n(n int64) int64 { return int64(r.Next() % uint64(n)) }

// MixSeed derives the n-th seed of a family from seed, decorrelated from
// its siblings: how a virtual-time run gives every link direction its own
// stream.
func MixSeed(seed, n int64) int64 {
	return int64(splitMixFinish(uint64(seed) + uint64(n)*splitMixGamma))
}
