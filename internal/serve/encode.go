package serve

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/store"
)

// answer is a figure answer that writes its own wire form.
type answer interface {
	// appendTo writes the answer onto e: one JSON array and a newline,
	// or under ndjson one object per line.
	appendTo(e *encoder, ndjson bool)
}

// rows is an answer of one wire type with the appender that writes a
// row of it.
type rows[T any] struct {
	items []T
	row   func(*encoder, *T)
}

func (r rows[T]) appendTo(e *encoder, ndjson bool) {
	if ndjson {
		for i := range r.items {
			r.row(e, &r.items[i])
			e.b = append(e.b, '\n')
		}
		return
	}
	if r.items == nil {
		e.b = append(e.b, "null\n"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range r.items {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		r.row(e, &r.items[i])
	}
	e.b = append(e.b, "]\n"...)
}

// scratch holds the encoders answers are written with; each response
// keeps only an exact-size copy of its bytes.
var scratch = sync.Pool{New: func() any { return new(encoder) }}

// encode renders a as contentType with a pooled encoder and returns a
// copy the size of the body: one allocation per response.
func encode(a answer, contentType string) ([]byte, error) {
	e := scratch.Get().(*encoder)
	e.b, e.err = e.b[:0], nil
	a.appendTo(e, contentType == ctNDJSON)
	var body []byte
	err := e.err
	if err == nil {
		body = make([]byte, len(e.b))
		copy(body, e.b)
	}
	scratch.Put(e)
	return body, err
}

// errUnsupportedFloat is what json.Marshal refuses too: JSON has no
// NaN or infinity.
var errUnsupportedFloat = errors.New("serve: NaN or infinite float in an answer")

// encoder appends JSON values exactly as json.Marshal writes them. The
// first error sticks, and the bytes after it are garbage.
type encoder struct {
	b   []byte
	err error
}

// str writes s as a JSON string. Printable ASCII that needs no escape
// is copied as is; anything else (quotes, backslashes, the HTML
// characters json.Marshal escapes, control bytes, non-ASCII, invalid
// UTF-8) goes through json.Marshal.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// float writes f in json.Marshal's format: 'f' for zero and magnitudes
// in [1e-6, 1e21), otherwise 'e' with a single-digit negative exponent
// unpadded (1e-07 → 1e-7).
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = errUnsupportedFloat
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *encoder) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// floats writes xs as a JSON array, nil as null.
func (e *encoder) floats(xs []float64) {
	if xs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range xs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(x)
	}
	e.b = append(e.b, ']')
}

// The row appenders follow each wire type's field order and tags.

func (e *encoder) latencyMapEntry(r *LatencyMapEntry) {
	e.b = append(e.b, `{"country":`...)
	e.str(r.Country)
	e.b = append(e.b, `,"continent":`...)
	e.str(r.Continent)
	e.b = append(e.b, `,"median_ms":`...)
	e.float(r.MedianMs)
	e.b = append(e.b, `,"ci_low_ms":`...)
	e.float(r.CILowMs)
	e.b = append(e.b, `,"ci_high_ms":`...)
	e.float(r.CIHighMs)
	e.b = append(e.b, `,"band":`...)
	e.str(r.Band)
	e.b = append(e.b, `,"samples":`...)
	e.int(r.Samples)
	e.b = append(e.b, '}')
}

func (e *encoder) cdfEntry(r *CDFEntry) {
	e.b = append(e.b, `{"continent":`...)
	e.str(r.Continent)
	e.b = append(e.b, `,"n":`...)
	e.int(r.N)
	e.b = append(e.b, `,"under_mtp":`...)
	e.float(r.UnderMTP)
	e.b = append(e.b, `,"under_hpl":`...)
	e.float(r.UnderHPL)
	e.b = append(e.b, `,"under_hrt":`...)
	e.float(r.UnderHRT)
	e.b = append(e.b, `,"series":`...)
	if r.Series == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, p := range r.Series {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, '[')
			e.float(p[0])
			e.b = append(e.b, ',')
			e.float(p[1])
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

func (e *encoder) platformDiffEntry(r *PlatformDiffEntry) {
	e.b = append(e.b, `{"continent":`...)
	e.str(r.Continent)
	e.b = append(e.b, `,"diffs_ms":`...)
	e.floats(r.DiffsMs)
	e.b = append(e.b, `,"atlas_faster_share":`...)
	e.float(r.AtlasFasterShare)
	e.b = append(e.b, `,"n_speedchecker":`...)
	e.int(r.NSpeedchecker)
	e.b = append(e.b, `,"n_atlas":`...)
	e.int(r.NAtlas)
	e.b = append(e.b, '}')
}

func (e *encoder) peeringShareEntry(r *PeeringShareEntry) {
	e.b = append(e.b, `{"provider":`...)
	e.str(r.Provider)
	e.b = append(e.b, `,"direct_pct":`...)
	e.float(r.DirectPct)
	e.b = append(e.b, `,"one_as_pct":`...)
	e.float(r.OneASPct)
	e.b = append(e.b, `,"multi_as_pct":`...)
	e.float(r.MultiASPct)
	e.b = append(e.b, `,"n":`...)
	e.int(r.N)
	e.b = append(e.b, '}')
}

// changepointEntry honours the omitempty tags: a zero median (either
// sign) and an empty status are left out.
func (e *encoder) changepointEntry(r *store.ChangepointEntry) {
	e.b = append(e.b, `{"country":`...)
	e.str(r.Country)
	e.b = append(e.b, `,"provider":`...)
	e.str(r.Provider)
	e.b = append(e.b, `,"n_before":`...)
	e.int(r.NBefore)
	e.b = append(e.b, `,"n_after":`...)
	e.int(r.NAfter)
	if r.MedianBeforeMs != 0 {
		e.b = append(e.b, `,"median_before_ms":`...)
		e.float(r.MedianBeforeMs)
	}
	if r.MedianAfterMs != 0 {
		e.b = append(e.b, `,"median_after_ms":`...)
		e.float(r.MedianAfterMs)
	}
	e.b = append(e.b, `,"delta_ms":`...)
	e.float(r.DeltaMs)
	e.b = append(e.b, `,"shift":`...)
	e.float(r.Shift)
	if r.Status != "" {
		e.b = append(e.b, `,"status":`...)
		e.str(r.Status)
	}
	e.b = append(e.b, '}')
}
