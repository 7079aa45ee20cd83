package stats

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// TestMedianCI pins the order-statistic interval: the fallback below
// six observations, the tabulated ranks, the coverage and maximality of
// every rank up to n = 2000 by exact binomial summation, and that
// Sorted answers with the sample values themselves.
func TestMedianCI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sample := func(n int) Sorted {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 20 + 40*rng.Float64()
		}
		return SortedCopy(xs)
	}

	for n := 1; n < 6; n++ {
		xs := sample(n)
		if lo, hi := MedianCI(xs); lo != xs[0] || hi != xs[n-1] {
			t.Errorf("n=%d: CI [%v, %v], want [min, max] = [%v, %v]", n, lo, hi, xs[0], xs[n-1])
		}
	}
	if lo, hi := MedianCI(Sorted(nil)); lo != 0 || hi != 0 {
		t.Errorf("empty: CI [%v, %v], want [0, 0]", lo, hi)
	}

	for n, want := range map[int]int{6: 1, 9: 2, 10: 2, 20: 6, 30: 10, 100: 40, 1000: 469} {
		if got := MedianCIRank(n); got != want {
			t.Errorf("MedianCIRank(%d) = %d, want %d", n, got, want)
		}
	}

	// Row n of Pascal's triangle, updated in place, up to the largest
	// rank any n ≤ maxN needs. P(Bin(n, ½) < j) ≤ 1/40 is
	// 40·Σ_{k<j} C(n,k) ≤ 2ⁿ, decided in integers.
	const maxN = 2000
	row := make([]*big.Int, maxN/2+2)
	for k := range row {
		row[k] = new(big.Int)
	}
	row[0].SetInt64(1)
	forty := big.NewInt(40)
	var sum, lhs, pow big.Int
	for n := 1; n <= maxN; n++ {
		for k := min(n, len(row)-1); k >= 1; k-- {
			row[k].Add(row[k], row[k-1])
		}
		if n < 6 {
			continue
		}
		j := MedianCIRank(n)
		if j < 1 || 2*j > n+1 {
			t.Fatalf("n=%d: rank %d outside [1, (n+1)/2]", n, j)
		}
		sum.SetInt64(0)
		for k := 0; k < j; k++ {
			sum.Add(&sum, row[k])
		}
		pow.Lsh(big.NewInt(1), uint(n))
		if lhs.Mul(&sum, forty).Cmp(&pow) > 0 {
			t.Fatalf("n=%d, j=%d: P(Bin < j) > 0.025, coverage below 95%%", n, j)
		}
		sum.Add(&sum, row[j])
		if lhs.Mul(&sum, forty).Cmp(&pow) <= 0 {
			t.Fatalf("n=%d, j=%d: rank j+1 also qualifies, j is not the largest", n, j)
		}
	}

	for _, n := range []int{6, 7, 31, 100, 333, 2000} {
		xs := sample(n)
		j := MedianCIRank(n)
		if lo, hi := MedianCI(xs); lo != xs[j-1] || hi != xs[n-j] {
			t.Errorf("n=%d: CI [%v, %v], want xs[%d], xs[%d] = [%v, %v]", n, lo, hi, j-1, n-j, xs[j-1], xs[n-j])
		}
	}
}

// FuzzMedianCI checks the interval on arbitrary finite samples: ranks
// in [1, n], lo ≤ median ≤ hi, and both bounds members of the sample.
func FuzzMedianCI(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(42)))
	seed := []byte{}
	for _, x := range []float64{3, -1, 1e308, -1e308, 0, 2.5, 7, 7, 7, 1e-300} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var xs []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return
		}
		s := SortedCopy(xs)
		n := len(s)
		j := MedianCIRank(n)
		if j < 1 || n+1-j > n || j > n+1-j {
			t.Fatalf("n=%d: ranks %d, %d outside [1, n]", n, j, n+1-j)
		}
		lo, hi := MedianCI(s)
		if med := s.Quantile(0.5); !(lo <= med && med <= hi) {
			t.Fatalf("n=%d: median %v outside [%v, %v]", n, med, lo, hi)
		}
		for _, b := range []float64{lo, hi} {
			if i := sort.SearchFloat64s(s, b); i == n || s[i] != b {
				t.Fatalf("n=%d: bound %v is not a sample member", n, b)
			}
		}
	})
}
