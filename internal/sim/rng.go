package sim

// RNG is a splitmix64 pseudo-random generator. Every model component that
// needs randomness owns one, seeded from its configuration, so simulations
// are pure functions of their inputs regardless of event interleaving.
type RNG struct{ state uint64 }

// NewRNG returns a generator with the given seed. Distinct components should
// use distinct seeds; Split derives independent child streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}
