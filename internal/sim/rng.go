package sim

import "hash/fnv"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). It is implemented locally so that
// simulation results are reproducible across Go releases, independent of any
// changes to math/rand.
//
// RNG is not safe for concurrent use; derive one generator per goroutine
// with Split or Derive.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next splitmix64 output. It is used
// only for seeding, as recommended by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Any seed (including 0) yields
// a valid, well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes r in place to the exact state NewRNG(seed) would
// produce, letting arena-reused simulations restart their random streams
// without allocating.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Int63 returns a uniformly distributed value in [0, 1<<63).
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n) using Lemire's
// nearly-divisionless method with rejection to remove modulo bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with n == 0")
	}
	// Rejection sampling over the largest multiple of n that fits.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns an unbiased random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// TimeIn returns a uniformly distributed Time in the inclusive interval
// [lo, hi]. It panics if lo > hi.
func (r *RNG) TimeIn(lo, hi Time) Time {
	if lo > hi {
		panic("sim: TimeIn with lo > hi")
	}
	span := uint64(hi-lo) + 1
	return lo + Time(r.Uint64n(span))
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split returns a new generator derived from r's stream. The parent stream
// advances by one output, so repeated Splits yield independent children.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// DeriveStream deterministically derives a per-(node, counter) seed from a
// base seed. When every draw site reseeds a scratch RNG with
// DeriveStream(base, node, ctr) — ctr being a per-node draw counter — the
// values a node observes depend only on its own history, never on the
// global interleaving of nodes; the golden outputs pin the draws this
// yields. Two rounds of splitmix64 fully decorrelate adjacent (node, ctr)
// pairs.
func DeriveStream(base, node, ctr uint64) uint64 {
	x := base + node
	y := splitmix64(&x) + ctr
	return splitmix64(&y)
}

// DeriveSeed deterministically combines a base seed with string labels to
// produce an independent sub-seed. It is used so that, e.g., fault placement
// and delay draws come from unrelated streams: changing one experiment knob
// does not perturb the randomness consumed by another subsystem.
func DeriveSeed(base uint64, labels ...string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(base >> (8 * i))
	}
	h.Write(buf[:])
	for _, l := range labels {
		h.Write([]byte{0})
		h.Write([]byte(l))
	}
	x := h.Sum64()
	return splitmix64(&x)
}
