// Package sketch implements a mergeable quantile sketch — a t-digest
// with deterministic centroid merging — for the on-disk segment store
// (internal/segment). One sketch summarizes one (platform × group ×
// time-partition) RTT vector at seal time; at query time the per-shard,
// per-partition sketches merge into one digest per group, so quantile
// and CDF figure endpoints answer in O(centroids) instead of k-way
// merging full sorted vectors.
//
// Determinism contract. A sketch is a pure function of the value
// sequence fed to Add (the segment writer feeds each group's RTT
// vector sorted ascending, the canonical order), and Merge(a, b) is a
// pure function of the ordered pair (a, b): centroids concatenate by a
// 2-way sorted merge (a's centroid wins ties) and recompress with the
// fixed compression. Call sites fix the merge order (the segment
// reader's partition tree, DESIGN.md §15), so a replayed query
// reproduces the same bits. No clock, no randomness.
//
// Sharing. A sketch that came out of DecodeInto, Merge or Merged holds
// no buffered observations, and its centroid slices are never written
// in place again — every mutation installs freshly allocated ones,
// except a later DecodeInto into the same digest, which is only for
// digests no one else reads. Such a sketch may therefore be read (N,
// Quantile, Quantiles, OrderStat, CDF, Curve, Shift, Merged, the
// argument side of Merge) from many goroutines at once; that is what
// lets the segment reader cache decoded digests per mount.
//
// Accuracy. The usual t-digest property: relative rank error
// ~O(q(1-q)/δ), tightest at the tails and the median. Small groups
// (n ≲ δ) keep every observation as a singleton centroid, so sketch
// answers on them are interpolation-exact.
package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/binfmt"
	"repro/internal/stats"
)

// DefaultCompression is the δ used by the segment writer: ~2δ centroid
// ceiling, which keeps per-group sketches around a few KB while holding
// mid-quantile rank error under a percent.
const DefaultCompression = 200

// Compression bounds accepted by New and DecodeInto.
const (
	minCompression = 10
	maxCompression = 10000
)

// maxCentroids bounds one decoded sketch — a corrupt or hostile count
// must not translate into an unbounded allocation.
const maxCentroids = 1 << 20

// Sketch is a mergeable t-digest. The zero value is not usable; build
// with New. It is a stats.Distribution, so the figure kernels read a
// digest the way they read a sorted vector.
type Sketch struct {
	compression int
	// Centroids sorted by mean ascending; weights[i] observations
	// collapse onto means[i].
	means   []float64
	weights []uint64
	count   uint64
	min     float64
	max     float64
	// buf holds raw observations not yet folded into centroids.
	buf []float64
}

// New returns an empty sketch with the given compression (δ). Out of
// range compressions clamp into [10, 10000].
func New(compression int) *Sketch {
	if compression < minCompression {
		compression = minCompression
	}
	if compression > maxCompression {
		compression = maxCompression
	}
	return &Sketch{compression: compression}
}

// Count returns the number of observations folded in.
func (s *Sketch) Count() uint64 { return s.count }

// Min returns the smallest observation (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// HeapBytes is the memory the sketch holds: the struct and its slices
// at their capacity — a merged digest keeps the capacity of its merge.
func (s *Sketch) HeapBytes() int {
	return int(unsafe.Sizeof(*s)) + 8*(cap(s.means)+cap(s.weights)+cap(s.buf))
}

// Add folds one observation in.
func (s *Sketch) Add(x float64) {
	if s.count == 0 && len(s.buf) == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.buf = append(s.buf, x)
	if len(s.buf) >= 4*s.compression {
		s.flush()
	}
}

// flush folds the buffered observations into the centroid list.
func (s *Sketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	bufW := make([]uint64, len(s.buf))
	for i := range bufW {
		bufW[i] = 1
	}
	s.count += uint64(len(s.buf))
	means, weights := merge2Sorted(s.means, s.weights, s.buf, bufW)
	s.buf = s.buf[:0]
	s.compress(means, weights)
}

// merge2Sorted merges two centroid lists sorted by mean into freshly
// allocated slices; a's centroid wins ties, which is what makes Merge a
// deterministic function of its ordered arguments.
func merge2Sorted(aM []float64, aW []uint64, bM []float64, bW []uint64) ([]float64, []uint64) {
	means := make([]float64, 0, len(aM)+len(bM))
	weights := make([]uint64, 0, len(aW)+len(bW))
	i, j := 0, 0
	for i < len(aM) && j < len(bM) {
		if aM[i] <= bM[j] {
			means = append(means, aM[i])
			weights = append(weights, aW[i])
			i++
		} else {
			means = append(means, bM[j])
			weights = append(weights, bW[j])
			j++
		}
	}
	means = append(means, aM[i:]...)
	weights = append(weights, aW[i:]...)
	means = append(means, bM[j:]...)
	weights = append(weights, bW[j:]...)
	return means, weights
}

// kScale is the t-digest k₁ scale function, δ/(2π)·asin(2q−1): steep
// at the tails (forcing singleton centroids there) and flat in the
// middle (letting centroids grow). A centroid may span at most one
// unit of k, which bounds the centroid count by ~δ.
func (s *Sketch) kScale(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return float64(s.compression) / (2 * math.Pi) * math.Asin(2*q-1)
}

// compress compacts a mean-sorted centroid list holding s.count
// observations into s's centroids. It compacts in place and keeps the
// slices, so they must be the caller's own — the fresh pair
// merge2Sorted returned, never a slice another sketch can see.
//
// A list of singletons (count == len(means): every weight is 1) that
// singletonsStay admits skips the pass, which would merge nothing.
func (s *Sketch) compress(means []float64, weights []uint64) {
	n := len(means)
	if n > 0 && !(s.count == uint64(n) && singletonsStay(n, s.compression)) {
		n = s.compactPass(means, weights)
	}
	s.means, s.weights = means[:n], weights[:n]
}

// singletonsStay reports whether compactPass leaves a list of n unit
// weights as it is. Two unit weights span 2/n of q, and k₁'s slope
// δ/(π·√(1−(2q−1)²)) is never below δ/π, so they span at least
// 2δ/(π·n) units of k: more than one, which no merge may span, whenever
// n < 2δ/π. The bound n < 2δ/π − 1 leaves the pass's rounding a wide
// margin.
func singletonsStay(n, compression int) bool {
	return float64(n) < 2*float64(compression)/math.Pi-1
}

// compactPass is the single deterministic compaction pass over a
// non-empty mean-sorted centroid list: neighbours merge while the
// combined centroid still spans ≤ 1 unit of the k₁ scale. It writes
// the compacted list over the front of the input and returns its
// length.
func (s *Sketch) compactPass(means []float64, weights []uint64) int {
	total := float64(s.count)
	n := 0 // centroids written; n < i below, so a write never overtakes a read
	var wSoFar float64
	kLeft := s.kScale(0)
	curM, curW := means[0], float64(weights[0])
	for i := 1; i < len(means); i++ {
		pW := float64(weights[i])
		if s.kScale((wSoFar+curW+pW)/total)-kLeft <= 1 {
			curW += pW
			curM += (means[i] - curM) * pW / curW
		} else {
			means[n], weights[n] = curM, uint64(curW)
			n++
			wSoFar += curW
			kLeft = s.kScale(wSoFar / total)
			curM, curW = means[i], pW
		}
	}
	means[n], weights[n] = curM, uint64(curW)
	return n + 1
}

// Merge folds other into s. Neither sketch's compression changes; the
// result keeps s's. The operation is deterministic in the ordered pair
// (s, other) — callers fix a canonical merge order.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil {
		return
	}
	other.flush()
	if other.count == 0 {
		return
	}
	s.flush()
	if s.count == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	s.count += other.count
	means, weights := merge2Sorted(s.means, s.weights, other.means, other.weights)
	s.compress(means, weights)
}

// Merged returns a new sketch holding a's observations then b's — bit
// for bit what a.Merge(b) would leave in a — without changing either
// (beyond folding in observations still buffered by Add, of which a
// decoded or merged sketch has none).
func Merged(a, b *Sketch) *Sketch {
	a.flush()
	out := *a // shares a's centroid slices, which Merge replaces and never writes
	out.buf = nil
	out.Merge(b)
	return &out
}

// walk is a resumable left-to-right scan of the centroids. Keys — rank
// targets for quantile, values for cdf, never both on one walk — that
// ascend continue from the centroid the previous key stopped at; a key
// below its predecessor (or a NaN) restarts the scan. Either way the
// arithmetic on the way to an answer is that of a scan from the first
// centroid, so a batch answers bit-identically to one call per key.
type walk struct {
	s                *Sketch
	i                int     // the next centroid to examine
	cum              float64 // the weight left of centroid i
	prevPos, prevVal float64 // rank and value of the anchor left of centroid i
	last             float64 // the previous key
}

func (s *Sketch) walk() walk {
	s.flush()
	return walk{s: s, prevVal: s.min, last: math.Inf(-1)}
}

func (w *walk) seek(key float64) {
	if !(key >= w.last) {
		*w = w.s.walk()
	}
	w.last = key
}

// quantile is Quantile: piecewise-linear interpolation through the
// centroid centers, anchored at (0, min) and (count, max), so estimates
// never escape the observed range and are exact at the extremes.
func (w *walk) quantile(q float64) float64 {
	s := w.s
	switch {
	case s.count == 0:
		return 0
	case q <= 0:
		return s.min
	case q >= 1:
		return s.max
	}
	return w.rank(q * float64(s.count))
}

// rank is the value at rank target: the quantile curve read at
// target observations from the left, 0 < target < count.
func (w *walk) rank(target float64) float64 {
	s := w.s
	for w.seek(target); w.i < len(s.weights); w.i++ {
		wt := float64(s.weights[w.i])
		center := w.cum + wt/2
		if target < center {
			return lerp(w.prevPos, w.prevVal, center, s.means[w.i], target)
		}
		w.prevPos, w.prevVal = center, s.means[w.i]
		w.cum += wt
	}
	return lerp(w.prevPos, w.prevVal, float64(s.count), s.max, target)
}

// cdf is CDF: the inverse of the quantile curve.
func (w *walk) cdf(x float64) float64 {
	s := w.s
	switch {
	case s.count == 0, x < s.min:
		return 0
	case x >= s.max:
		return 1
	}
	total := float64(s.count)
	for w.seek(x); w.i < len(s.weights); w.i++ {
		wt := float64(s.weights[w.i])
		center := w.cum + wt/2
		if x < s.means[w.i] {
			return lerp(w.prevVal, w.prevPos, s.means[w.i], center, x) / total
		}
		w.prevPos, w.prevVal = center, s.means[w.i]
		w.cum += wt
	}
	return lerp(w.prevVal, w.prevPos, s.max, total, x) / total
}

// Quantile returns the q-th quantile estimate.
func (s *Sketch) Quantile(q float64) float64 {
	w := s.walk()
	return w.quantile(q)
}

// Quantiles appends Quantile(q) for each q to dst. An ascending qs — a
// grid — costs one pass over the centroids instead of one per point.
func (s *Sketch) Quantiles(dst, qs []float64) []float64 {
	w := s.walk()
	for _, q := range qs {
		dst = append(dst, w.quantile(q))
	}
	return dst
}

// CDF returns the estimated P(X ≤ x).
func (s *Sketch) CDF(x float64) float64 {
	w := s.walk()
	return w.cdf(x)
}

// N returns the number of observations, buffered ones included.
func (s *Sketch) N() int {
	s.flush()
	return int(s.count)
}

// OrderStat estimates the r-th smallest observation, 1 ≤ r ≤ N: the
// quantile curve at rank r − ½, where the digest centres its r-th
// observation — exact while the centroids there are singletons.
func (s *Sketch) OrderStat(r int) float64 {
	w := s.walk()
	if s.count == 0 {
		return 0
	}
	return w.rank(float64(r) - 0.5)
}

var _ stats.Shifter[*Sketch] = (*Sketch)(nil)

// curvePoints is the resolution of Curve.
const curvePoints = 1024

// Curve materializes the digest's CDF from its quantiles on the
// midpoint grid (i+½)/1024, read in one sweep of the centroids.
func (s *Sketch) Curve() stats.CDF {
	w := s.walk()
	xs := make([]float64, curvePoints)
	for i := range xs {
		xs[i] = w.quantile((float64(i) + 0.5) / curvePoints)
	}
	cdf, _ := stats.CDFFromSorted(xs) // never empty
	return cdf
}

// Shift is the Mann-Whitney AUC P(after > s) + ½·P(after = s) with
// every centroid read as a point mass at its mean: U sums, over after's
// centroids, weight × (s's weight strictly below its mean + ½ the weight
// tied with it), and Shift is U / (N_s·N_after). Both centroid lists are
// sorted, so one merge walk with two cursors over s answers in
// O(c_s + c_after). On all-singleton digests this is the exact
// statistic, bit for bit what stats.Sorted.Shift returns on the same
// observations. Either side empty returns 0.5 (no evidence of a shift).
func (s *Sketch) Shift(after *Sketch) float64 {
	s.flush()
	after.flush()
	if s.count == 0 || after.count == 0 {
		return 0.5
	}
	// For each of after's means, s's weight strictly below it (lt, up to
	// centroid i) and at or below it (le, up to centroid j); the means
	// ascend, so both cursors only advance.
	var u float64
	var lt, le uint64
	i, j := 0, 0
	for k, v := range after.means {
		for i < len(s.means) && s.means[i] < v {
			lt += s.weights[i]
			i++
		}
		for j < len(s.means) && s.means[j] <= v {
			le += s.weights[j]
			j++
		}
		u += float64(after.weights[k]) * (float64(lt) + float64(le-lt)/2)
	}
	return u / (float64(s.count) * float64(after.count))
}

// lerp interpolates the point at x on the segment (x0,y0)-(x1,y1);
// a degenerate (vertical) segment answers y1.
func lerp(x0, y0, x1, y1, x float64) float64 {
	if x1 <= x0 {
		return y1
	}
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// ---- serialization ----

// Wire layout (embedded in segment sketch blocks):
//
//	byte    version (1)
//	byte    flags (bit0: means stored raw, no bit-delta coding)
//	uvarint compression
//	uvarint count
//	uvarint ncentroids
//	8 bytes min (IEEE-754 bits, LE)    — only when count > 0
//	8 bytes max (IEEE-754 bits, LE)    — only when count > 0
//	means   binfmt's sorted-float column: bit-pattern deltas, or raw
//	        8-byte means when the flag is set (any non-positive or
//	        non-finite mean)
//	weights uvarint each

const sketchVersion = 1

const flagRawMeans = 0x01

// ErrCorrupt marks a sketch payload that fails structural validation.
var ErrCorrupt = errors.New("sketch: corrupt payload")

// AppendBinary serializes the sketch onto dst and returns the extended
// slice. The encoding is canonical: equal sketches serialize to equal
// bytes.
func (s *Sketch) AppendBinary(dst []byte) []byte {
	s.flush()
	flags := byte(0)
	for _, m := range s.means {
		if !(m > 0) || math.IsInf(m, 0) {
			flags = flagRawMeans
			break
		}
	}
	dst = append(dst, sketchVersion, flags)
	dst = binary.AppendUvarint(dst, uint64(s.compression))
	dst = binary.AppendUvarint(dst, s.count)
	dst = binary.AppendUvarint(dst, uint64(len(s.means)))
	if s.count == 0 {
		return dst
	}
	dst = binfmt.AppendFloat64(dst, s.min)
	dst = binfmt.AppendFloat64(dst, s.max)
	if flags == flagRawMeans {
		dst = binfmt.AppendFloats(dst, s.means)
	} else {
		dst = binfmt.AppendFloatDeltas(dst, s.means)
	}
	for _, w := range s.weights {
		dst = binary.AppendUvarint(dst, w)
	}
	return dst
}

// DecodeInto parses one serialized sketch from the front of b into s
// and returns the unconsumed remainder. Every structural invariant is
// validated — a decoded sketch is safe to merge and query. s may be a
// zero Sketch or one that held anything before: whatever s held is
// overwritten, and its slices' capacity is reused, so a caller that
// only checks blocks decodes them all into one digest. s is written in
// place, so it must be a digest no one else reads. After an error s
// holds no sketch, only garbage, until a later DecodeInto succeeds.
func DecodeInto(s *Sketch, b []byte) ([]byte, error) {
	d := binfmt.NewDec(b)
	version, flags := d.Byte(), d.Byte()
	compression, count := d.Uvarint(), d.Uvarint()
	// Count also refuses an n the remaining bytes cannot hold (a centroid
	// costs at least two), so the slices below are sized by the input.
	n := d.Count(maxCentroids)
	switch { // Fail keeps an earlier cursor failure, whose zero reads land here
	case version != sketchVersion:
		d.Fail(fmt.Errorf("version %d", version))
	case flags&^flagRawMeans != 0:
		d.Fail(fmt.Errorf("unknown flags %#x", flags))
	case compression < minCompression || compression > maxCompression:
		d.Fail(fmt.Errorf("compression %d out of range", compression))
	case (count == 0) != (n == 0):
		d.Fail(fmt.Errorf("count %d with %d centroids", count, n))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	*s = Sketch{compression: int(compression), means: s.means[:0], weights: s.weights[:0], buf: s.buf[:0]}
	if count == 0 {
		return d.Rest(), nil
	}
	s.count, s.min, s.max = count, d.Float64(), d.Float64()
	s.means, s.weights = resize(s.means, n), resize(s.weights, n)
	if flags&flagRawMeans != 0 {
		d.Floats(s.means)
	} else {
		d.FloatDeltas(s.means)
	}
	for i := range s.weights {
		s.weights[i] = d.Uvarint()
	}
	d.Fail(s.validate()) // kept only if the cursor itself did not fail
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return d.Rest(), nil
}

// resize returns xs at length n, reusing its array when it is large
// enough. A fresh array holds exactly n, or twice the old one when xs
// had one, so a digest reused over many decodes grows a logarithmic
// number of times.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n, max(n, 2*cap(xs)))
	}
	return xs[:n]
}

// validate checks the invariants Merge and Quantile rely on, on a
// sketch whose fields came off the wire.
func (s *Sketch) validate() error {
	if math.IsNaN(s.min) || math.IsInf(s.min, 0) || math.IsNaN(s.max) || math.IsInf(s.max, 0) || s.min > s.max {
		return errors.New("bad min/max")
	}
	var sum uint64
	for _, w := range s.weights {
		if w == 0 {
			return errors.New("zero centroid weight")
		}
		if w > math.MaxUint64-sum {
			return errors.New("weight overflow")
		}
		sum += w
	}
	if sum != s.count {
		return fmt.Errorf("weights sum %d, count %d", sum, s.count)
	}
	for i, m := range s.means {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return errors.New("non-finite mean")
		}
		if i > 0 && m < s.means[i-1] {
			return errors.New("means not sorted")
		}
	}
	if s.means[0] < s.min || s.means[len(s.means)-1] > s.max {
		return errors.New("means escape [min, max]")
	}
	return nil
}
