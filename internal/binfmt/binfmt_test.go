package binfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{{0x01}, []byte("hello, frame"), bytes.Repeat([]byte{0xab}, 300)}
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	off := 0
	for i, want := range payloads {
		got, next, err := FrameAt(buf, off)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload %x, want %x", i, got, want)
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("frames end at %d, buffer at %d", off, len(buf))
	}
	// The layout is the documented one, not merely self-consistent.
	ref := binary.AppendUvarint(nil, 1)
	ref = append(ref, 0x01)
	ref = binary.LittleEndian.AppendUint32(ref, Checksum([]byte{0x01}))
	if got := AppendFrame(nil, []byte{0x01}); !bytes.Equal(got, ref) {
		t.Fatalf("frame bytes %x, want %x", got, ref)
	}
}

func TestFrameAtRejects(t *testing.T) {
	good := AppendFrame(nil, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[3] ^= 0x01
	huge := binary.AppendUvarint(nil, MaxFrame+1)
	cases := []struct {
		name string
		data []byte
		off  int
		want error
	}{
		{"negative offset", good, -1, ErrShort},
		{"offset at end", good, len(good), ErrShort},
		{"empty length varint", []byte{0x80}, 0, ErrShort},
		{"zero length", []byte{0x00, 0, 0, 0, 0}, 0, ErrRange},
		{"oversize length", append(huge, 1, 2, 3), 0, ErrRange},
		{"cut inside payload", good[:4], 0, ErrShort},
		{"cut inside checksum", good[:len(good)-1], 0, ErrShort},
		{"payload flip", flipped, 0, ErrCRC},
	}
	for _, tc := range cases {
		if _, _, err := FrameAt(tc.data, tc.off); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 63, -64, math.MaxInt64, math.MinInt64} {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Errorf("Unzigzag(Zigzag(%d)) = %d", v, got)
		}
	}
	if Zigzag(-1) != 1 || Zigzag(1) != 2 {
		t.Errorf("Zigzag(-1), Zigzag(1) = %d, %d; want 1, 2", Zigzag(-1), Zigzag(1))
	}
}

// field is one value of a random field sequence, with the reference
// encoding spelled directly in encoding/binary.
type field struct {
	kind int
	u    uint64
	s    string
}

func (f field) appendRef(dst []byte) []byte {
	switch f.kind {
	case 0, 4: // uvarint, count
		return binary.AppendUvarint(dst, f.u)
	case 1: // zigzag
		v := int64(f.u)
		return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
	case 2: // byte
		return append(dst, byte(f.u))
	case 3: // float64
		return binary.LittleEndian.AppendUint64(dst, f.u)
	default: // string
		return append(binary.AppendUvarint(dst, uint64(len(f.s))), f.s...)
	}
}

func (f field) appendOurs(dst []byte) []byte {
	switch f.kind {
	case 0, 4:
		return binary.AppendUvarint(dst, f.u)
	case 1:
		return AppendZigzag(dst, int64(f.u))
	case 2:
		return append(dst, byte(f.u))
	case 3:
		return AppendFloat64(dst, math.Float64frombits(f.u))
	default:
		return AppendString(dst, f.s)
	}
}

// check reads the field back through the cursor: the value must match
// unless the read failed, and a failed read must return zero.
func (f field) check(t *testing.T, d *Dec) {
	t.Helper()
	var got, want any
	switch f.kind {
	case 0:
		got, want = d.Uvarint(), f.u
	case 1:
		got, want = d.Zigzag(), int64(f.u)
	case 2:
		got, want = d.Byte(), byte(f.u)
	case 3:
		got, want = math.Float64bits(d.Float64()), f.u
	case 4:
		got, want = uint64(d.Count(math.MaxInt)), f.u
	default:
		got, want = d.String(1<<10), f.s
	}
	if d.Err() != nil {
		want = reflect.Zero(reflect.TypeOf(want)).Interface()
	}
	if got != want {
		t.Fatalf("field kind %d read %v, want %v (cursor error: %v)", f.kind, got, want, d.Err())
	}
}

func randomFields(rng *rand.Rand) []field {
	fields := make([]field, 1+rng.Intn(40))
	for i := range fields {
		f := field{kind: rng.Intn(6), u: rng.Uint64() >> uint(rng.Intn(64))}
		if f.kind == 5 {
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			f.s = string(b)
		}
		fields[i] = f
	}
	// A count is bounded by the bytes after it; end every sequence with
	// enough padding bytes and keep counts below that.
	for i := range fields {
		if fields[i].kind == 4 {
			fields[i].u %= 64
		}
	}
	for i := 0; i < 64; i++ {
		fields = append(fields, field{kind: 2, u: uint64(i)})
	}
	return fields
}

// TestCursorMatchesEncodingBinary is the property test of the scalar
// vocabulary: random field sequences encode to exactly the bytes
// encoding/binary produces, decode back to the same values, and every
// strict prefix fails with ErrShort instead of inventing a value.
func TestCursorMatchesEncodingBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 300; round++ {
		fields := randomFields(rng)
		var ref, ours []byte
		for _, f := range fields {
			ref, ours = f.appendRef(ref), f.appendOurs(ours)
		}
		if !bytes.Equal(ref, ours) {
			t.Fatalf("round %d: Append* bytes differ from encoding/binary", round)
		}
		d := NewDec(ours)
		for _, f := range fields {
			f.check(t, &d)
		}
		if err := d.End(); err != nil {
			t.Fatalf("round %d: End: %v", round, err)
		}

		cut := rng.Intn(len(ours))
		d = NewDec(ours[:cut])
		for _, f := range fields {
			if d.Err() != nil {
				break
			}
			f.check(t, &d)
		}
		if err := d.End(); !errors.Is(err, ErrShort) {
			t.Fatalf("round %d: prefix %d/%d ended with %v, want ErrShort", round, cut, len(ours), err)
		}
	}
}

// TestStickyError pins the cursor contract parsers lean on: after the
// first failure every read returns the zero value, nothing advances,
// and the first error is the one reported.
func TestStickyError(t *testing.T) {
	buf := AppendString(binary.AppendUvarint(nil, 7), "abc")
	d := NewDec(buf)
	if d.Uvarint() != 7 {
		t.Fatal("first field misread")
	}
	mine := errors.New("my validity rule")
	d.Fail(mine)
	d.Fail(errors.New("a later failure"))
	rest := len(d.Rest())
	floats := []float64{1, 2}
	d.Floats(floats)
	d.FloatDeltas(floats)
	if d.Uvarint() != 0 || d.Zigzag() != 0 || d.Byte() != 0 || d.Float64() != 0 ||
		d.Count(10) != 0 || d.String(10) != "" || floats[0] != 1 || floats[1] != 2 {
		t.Error("a read after Fail returned a non-zero value")
	}
	if len(d.Rest()) != rest {
		t.Errorf("reads after Fail advanced the cursor: %d bytes left, was %d", len(d.Rest()), rest)
	}
	if d.Err() != mine || d.End() != mine {
		t.Errorf("Err/End = %v / %v, want the first failure", d.Err(), d.End())
	}

	d = NewDec([]byte{1, 2})
	d.Byte()
	if err := d.End(); !errors.Is(err, ErrTrailing) {
		t.Errorf("End with a byte left: %v, want ErrTrailing", err)
	}
}

func TestCountAndStringBounds(t *testing.T) {
	d := NewDec(binary.AppendUvarint(nil, 11))
	if d.Count(10); !errors.Is(d.Err(), ErrRange) {
		t.Errorf("count above max: %v, want ErrRange", d.Err())
	}
	// A count the remaining bytes cannot hold is refused before the
	// caller allocates for it.
	d = NewDec(append(binary.AppendUvarint(nil, 1<<20), 1, 2, 3))
	if n := d.Count(1 << 20); n != 0 || !errors.Is(d.Err(), ErrShort) {
		t.Errorf("count beyond input: n=%d err=%v, want 0, ErrShort", n, d.Err())
	}
	d = NewDec(AppendString(nil, "too long"))
	if d.String(3); !errors.Is(d.Err(), ErrRange) {
		t.Errorf("string above max: %v, want ErrRange", d.Err())
	}
	d = NewDec(AppendString(nil, "cut short")[:5])
	if d.String(64); !errors.Is(d.Err(), ErrShort) {
		t.Errorf("string beyond input: %v, want ErrShort", d.Err())
	}
}

func sortedFloats(rng *rand.Rand, n int, lo float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + 300*rng.Float64()
	}
	sort.Float64s(xs)
	return xs
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFloatColumnIdentity is FloatDeltas∘AppendFloatDeltas = id on
// every monotone-bits column, Floats∘AppendFloats = id on any column —
// the raw fallback a sorted run with negatives needs — and the encoded
// delta form is the documented one.
func TestFloatColumnIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		xs := sortedFloats(rng, 1+rng.Intn(200), 0)
		if round%10 == 0 {
			xs = append([]float64{0, 0}, xs...) // zeros and duplicates: zero deltas
		}
		if !MonotoneBits(xs) {
			t.Fatalf("round %d: sorted non-negative floats reported non-monotone", round)
		}
		enc := AppendFloatDeltas([]byte{0xee}, xs)
		ref := binary.LittleEndian.AppendUint64([]byte{0xee}, math.Float64bits(xs[0]))
		for i := 1; i < len(xs); i++ {
			ref = binary.AppendUvarint(ref, math.Float64bits(xs[i])-math.Float64bits(xs[i-1]))
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("round %d: delta column bytes differ from the reference", round)
		}
		got := make([]float64, len(xs))
		d := NewDec(enc[1:])
		d.FloatDeltas(got)
		if err := d.End(); err != nil || !sameBits(got, xs) {
			t.Fatalf("round %d: delta round trip: err=%v", round, err)
		}
		d = NewDec(enc[1 : len(enc)-1])
		d.FloatDeltas(got)
		if !errors.Is(d.Err(), ErrShort) {
			t.Fatalf("round %d: truncated delta column: %v, want ErrShort", round, d.Err())
		}

		neg := sortedFloats(rng, 2+rng.Intn(50), -150)
		neg[0], neg[len(neg)-1] = -1, 1 // guarantee a sign change
		sort.Float64s(neg)
		if MonotoneBits(neg) {
			t.Fatalf("round %d: a run crossing zero reported monotone", round)
		}
		neg = append(neg, math.Inf(1), math.NaN())
		raw := AppendFloats(nil, neg)
		got = make([]float64, len(neg))
		d = NewDec(raw)
		d.Floats(got)
		if err := d.End(); err != nil || !sameBits(got, neg) {
			t.Fatalf("round %d: raw round trip: err=%v", round, err)
		}
		d = NewDec(raw[:len(raw)-1])
		d.Floats(got)
		if !errors.Is(d.Err(), ErrShort) {
			t.Fatalf("round %d: truncated raw column: %v, want ErrShort", round, d.Err())
		}
	}
}

// TestFloatDeltasRejectsBitOverflow: a forged delta that would carry
// out of 64 bits must fail, not wrap around into a small float.
func TestFloatDeltasRejectsBitOverflow(t *testing.T) {
	enc := binary.LittleEndian.AppendUint64(nil, math.MaxUint64-5)
	enc = binary.AppendUvarint(enc, 5) // lands exactly on MaxUint64: legal
	enc = binary.AppendUvarint(enc, 1) // carries out
	got := make([]float64, 3)
	d := NewDec(enc)
	d.FloatDeltas(got)
	if !errors.Is(d.Err(), ErrRange) {
		t.Fatalf("overflowing delta: %v, want ErrRange", d.Err())
	}
	d = NewDec(enc)
	d.FloatDeltas(got[:2])
	if d.Err() != nil || math.Float64bits(got[1]) != math.MaxUint64 {
		t.Fatalf("delta reaching MaxUint64: err=%v bits=%x", d.Err(), math.Float64bits(got[1]))
	}
}

// FuzzDec drives every cursor method over arbitrary bytes in an order
// the bytes themselves choose. The contract: never panic, never read
// past the input, never advance after a failure, and never hand back
// more elements than the input has bytes.
func FuzzDec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(AppendFrame(nil, AppendString(AppendZigzag([]byte{3}, -9), "seed")))
	f.Add(AppendFloatDeltas([]byte{6, 3}, []float64{1, 1.5, 2}))
	f.Add(append([]byte{4}, binary.AppendUvarint(nil, math.MaxUint64)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, next, err := FrameAt(data, 0); err == nil {
			if next > len(data) || len(payload) == 0 || len(payload) > MaxFrame {
				t.Fatalf("FrameAt accepted a %d-byte payload ending at %d of %d", len(payload), next, len(data))
			}
		}
		d := NewDec(data)
		for steps := 0; steps < len(data)+16; steps++ { // every live step eats a byte; 16 more run on a dead cursor
			before, failed := len(d.Rest()), d.Err() != nil
			switch op := d.Byte(); op % 8 {
			case 0:
				d.Uvarint()
			case 1:
				d.Zigzag()
			case 2:
				d.Float64()
			case 3:
				if s := d.String(32); len(s) > 32 || len(s) > before {
					t.Fatalf("String returned %d bytes (max 32, input %d)", len(s), before)
				}
			case 4:
				if n := d.Count(1 << 12); n > 1<<12 || n > before {
					t.Fatalf("Count returned %d (max 4096, input %d)", n, before)
				}
			case 5:
				d.Floats(make([]float64, int(op>>3)))
			case 6:
				d.FloatDeltas(make([]float64, int(op>>3)))
			case 7:
				d.Fail(errors.New("caller rule"))
			}
			after := len(d.Rest())
			if after > before || (failed && after != before) {
				t.Fatalf("cursor moved from %d to %d bytes left (failed before: %v)", before, after, failed)
			}
		}
		if d.Err() == nil {
			t.Fatalf("cursor still live after %d steps over %d bytes", len(data)+16, len(data))
		}
	})
}
