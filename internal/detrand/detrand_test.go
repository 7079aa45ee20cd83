package detrand

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// specialSeeds are the seeds math/rand's reduction treats specially:
// zero (replaced by 89482311), the replacement itself, ±1, multiples of
// the modulus (which reduce to zero), values just around them, and the
// int64 extremes.
var specialSeeds = []int64{
	0, 1, -1, 2, -2, zeroSeed, -zeroSeed,
	lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod, lcgMod - 1, lcgMod + 1, -(lcgMod - 1),
	1 << 31, -(1 << 31), 1 << 32, 1<<62 + 12345,
	(math.MaxInt64 / lcgMod) * lcgMod, -(math.MaxInt64 / lcgMod) * lcgMod,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// drawsPerSeed is more than two full wraps of the 607-word register, so
// every word is read once as seeded and again after being rewritten.
const drawsPerSeed = 1500

// draw takes one value through the rand.Rand method selected by op: the
// methods the simulator, the campaign engine and the fleet generators
// call. Shuffle and Perm fold their output into the returned value.
func draw(r *rand.Rand, op int) uint64 {
	switch op % 10 {
	case 0:
		return math.Float64bits(r.Float64())
	case 1:
		return math.Float64bits(r.NormFloat64())
	case 2:
		return math.Float64bits(r.ExpFloat64())
	case 3:
		return uint64(r.Intn(1 + op%4096))
	case 4:
		return uint64(r.Int31n(int32(1 + op%(1<<20))))
	case 5:
		return uint64(r.Int63n(int64(1) << (1 + op%62)))
	case 6:
		return uint64(r.Uint32())
	case 7:
		return r.Uint64()
	case 8:
		xs := []int{0, 1, 2, 3, 4, 5, 6}
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		var v uint64
		for _, x := range xs {
			v = v*8 + uint64(x)
		}
		return v
	default:
		var v uint64
		for _, x := range r.Perm(1 + op%9) {
			v = v*16 + uint64(x)
		}
		return v
	}
}

// sameStream draws n values through every method from a Source and from
// rand.NewSource, both seeded with seed, and reports the first mismatch.
func sameStream(t *testing.T, lazy *rand.Rand, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := draw(lazy, i), draw(want, i); g != w {
			t.Fatalf("seed %d: draw %d (method %d) = %#x, math/rand gives %#x", seed, i, i%10, g, w)
		}
	}
}

// TestSourceMatchesMathRand is the differential test: for thousands of
// random seeds and every special one, a re-seeded Source reproduces
// rand.NewSource's stream through every rand.Rand method the tree uses.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), specialSeeds...)
	gen := rand.New(rand.NewSource(20261015))
	for i := 0; i < 3000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	lazy := New(0) // one generator, re-seeded for every seed as the simulator does
	for _, seed := range seeds {
		lazy.Seed(seed)
		sameStream(t, lazy, seed, drawsPerSeed)
	}
}

// TestReseedMidStream re-seeds a source that is part-way through a
// stream (some words computed, some rewritten by draws, the taps moved)
// and requires the fresh seed's stream from the first draw on.
func TestReseedMidStream(t *testing.T) {
	lazy := New(1)
	for _, cut := range []int{1, 17, 273, 334, 606, 607, 1000, 1215} {
		for i := 0; i < cut; i++ {
			lazy.Uint64()
		}
		seed := int64(cut)*7919 - 3
		lazy.Seed(seed)
		sameStream(t, lazy, seed, drawsPerSeed)
	}
}

// TestReseedAllocatesNothing pins the point of the package: re-seeding
// a generator and drawing from it allocates nothing. A reintroduced
// rand.NewSource per measurement (a 4.9 KB register) fails it.
func TestReseedAllocatesNothing(t *testing.T) {
	r := New(0)
	seed := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		seed++
		r.Seed(NewHash().Int64(seed).Seed())
		for i := 0; i < 10; i++ {
			r.Float64()
		}
	}); n != 0 {
		t.Errorf("re-seed plus ten draws allocates %v times, want 0", n)
	}
}

// TestHashMatchesFNV checks Hash against hash/fnv over the byte layouts
// the seed derivations write, and the two finalizers against their
// definitions.
func TestHashMatchesFNV(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		key := make([]byte, gen.Intn(24))
		gen.Read(key)
		tail := []byte{byte(gen.Intn(256)), byte(gen.Intn(256))}
		v := int64(gen.Uint64())

		f := fnv.New64a()
		f.Write(key)
		f.Write([]byte{0})
		f.Write(tail)
		var le [8]byte
		for j := range le {
			le[j] = byte(v >> (8 * j))
		}
		f.Write(le[:])

		h := NewHash().Str(string(key)).Byte(0).Bytes(tail...).Int64(v)
		if uint64(h) != f.Sum64() {
			t.Fatalf("key %x: Hash %#x, fnv %#x", key, uint64(h), f.Sum64())
		}
		if h.Seed() != int64(splitmix64(f.Sum64())) {
			t.Fatal("Seed is not splitmix64 of the hash")
		}
		if u := h.Uniform(); u != float64(splitmix64(f.Sum64())>>11)/float64(1<<53) || u < 0 || u >= 1 {
			t.Fatalf("Uniform = %v", u)
		}
	}
	if uint64(NewHash()) != fnv.New64a().Sum64() {
		t.Error("the empty hash is not FNV-1a's offset basis")
	}
}

// FuzzSource drives a source through an arbitrary seed, a draw count, a
// re-seed and a method program, against math/rand.
func FuzzSource(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(10), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(math.MinInt64), int64(lcgMod), uint16(700), []byte{7, 7, 1})
	f.Add(int64(-1), int64(zeroSeed), uint16(1215), []byte{9, 8, 3})
	f.Fuzz(func(t *testing.T, seed, reseed int64, skip uint16, program []byte) {
		if len(program) > 4096 {
			program = program[:4096]
		}
		lazy, want := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < int(skip%2048); i++ {
			if g, w := lazy.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, g, w)
			}
		}
		lazy.Seed(reseed)
		want = rand.New(rand.NewSource(reseed))
		for i, op := range program {
			if g, w := draw(lazy, int(op)), draw(want, int(op)); g != w {
				t.Fatalf("reseed %d: step %d (op %d) = %#x, want %#x", reseed, i, op, g, w)
			}
		}
	})
}
