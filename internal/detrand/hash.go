package detrand

// Hash is a 64-bit FNV-1a hash under construction — the value
// hash/fnv.New64a computes over the same bytes — built by value, so
// deriving a measurement's seed allocates nothing. Each writing method
// returns the hash extended by its argument; Seed and Uniform finalize:
//
//	seed := detrand.NewHash().Str(probeID).Byte(0).Str(regionID).Int64(worldSeed).Seed()
type Hash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewHash returns the hash of no bytes.
func NewHash() Hash { return fnvOffset }

// Byte writes one byte.
func (h Hash) Byte(b byte) Hash { return (h ^ Hash(b)) * fnvPrime }

// Bytes writes bs in order.
func (h Hash) Bytes(bs ...byte) Hash {
	for _, b := range bs {
		h = h.Byte(b)
	}
	return h
}

// Str writes the bytes of s, with no length or terminator.
func (h Hash) Str(s string) Hash {
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}

// Int64 writes the eight bytes of v, least significant first.
func (h Hash) Int64(v int64) Hash {
	for i := 0; i < 8; i++ {
		h = h.Byte(byte(v >> (8 * i)))
	}
	return h
}

// Seed finalizes the hash into a math/rand seed. Related keys (same
// pair, consecutive cycles) hash to related FNV values, and those
// seeded math/rand's first draws with visible structure — probe
// availability correlated across cycles — so the value passes through
// splitmix64 first.
func (h Hash) Seed() int64 { return int64(splitmix64(uint64(h))) }

// Uniform finalizes the hash into a uniform draw in [0, 1): the top 53
// bits of splitmix64 of the hash.
func (h Hash) Uniform() float64 { return float64(splitmix64(uint64(h))>>11) / (1 << 53) }

// splitmix64 is the output function of Vigna's SplitMix64 generator: a
// bijective mix of x in which every input bit affects every output bit.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
