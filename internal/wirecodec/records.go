package wirecodec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/asn"
	"repro/internal/binfmt"
	"repro/internal/geo"
	"repro/internal/lastmile"
	"repro/internal/netaddr"
	"repro/internal/sample"
)

// Encoder holds the per-stream compression state: the string
// dictionary and the cycle delta baselines. One Encoder serves one
// stream; its frames must be decoded in order by one Decoder.
type Encoder struct {
	dict           map[string]uint64
	lastPingCycle  int64
	lastTraceCycle int64
}

// NewEncoder returns a fresh per-stream encoder.
func NewEncoder() *Encoder {
	return &Encoder{dict: make(map[string]uint64, 256)}
}

// appendString emits a dictionary reference: known strings cost one
// varint; a first sighting is sent inline and assigned the next id.
func (e *Encoder) appendString(dst []byte, s string) []byte {
	if id, ok := e.dict[s]; ok {
		return binary.AppendUvarint(dst, id)
	}
	e.dict[s] = uint64(len(e.dict)) + 1
	return binfmt.AppendString(append(dst, 0), s)
}

func (e *Encoder) appendVP(dst []byte, vp *sample.VantagePoint) []byte {
	dst = e.appendString(dst, vp.ProbeID)
	dst = e.appendString(dst, vp.Platform)
	dst = e.appendString(dst, vp.Country)
	dst = append(dst, byte(vp.Continent))
	dst = binary.AppendUvarint(dst, uint64(vp.ISP))
	return append(dst, byte(vp.Access))
}

func (e *Encoder) appendTarget(dst []byte, t *sample.Target) []byte {
	dst = e.appendString(dst, t.Region)
	dst = e.appendString(dst, t.Provider)
	dst = e.appendString(dst, t.Country)
	dst = append(dst, byte(t.Continent))
	return binary.AppendUvarint(dst, uint64(t.IP))
}

// AppendPing encodes one Sample onto dst.
func (e *Encoder) AppendPing(dst []byte, s sample.Sample) []byte {
	dst = e.appendVP(dst, &s.VP)
	dst = e.appendTarget(dst, &s.Target)
	dst = append(dst, byte(s.Protocol))
	dst = binfmt.AppendFloat64(dst, s.RTTms)
	dst = binfmt.AppendZigzag(dst, int64(s.Cycle)-e.lastPingCycle)
	e.lastPingCycle = int64(s.Cycle)
	return dst
}

// AppendTrace encodes one TraceSample onto dst. Hop TTLs are
// delta-encoded against the previous hop (usually +1, one byte); RTTs
// keep their exact float bits.
func (e *Encoder) AppendTrace(dst []byte, t sample.TraceSample) []byte {
	dst = e.appendVP(dst, &t.VP)
	dst = e.appendTarget(dst, &t.Target)
	dst = binfmt.AppendZigzag(dst, int64(t.Cycle)-e.lastTraceCycle)
	e.lastTraceCycle = int64(t.Cycle)
	dst = binary.AppendUvarint(dst, uint64(len(t.Hops)))
	prevTTL := int64(0)
	for _, h := range t.Hops {
		dst = binfmt.AppendZigzag(dst, int64(h.TTL)-prevTTL)
		prevTTL = int64(h.TTL)
		dst = binary.AppendUvarint(dst, uint64(h.IP))
		flag := byte(0)
		if h.Responded {
			flag = 1
		}
		dst = append(dst, flag)
		dst = binfmt.AppendFloat64(dst, h.RTTms)
	}
	return dst
}

// EncodePingBatch frames count-prefixed pings into a FramePings
// payload (type byte included), appended to dst.
func (e *Encoder) EncodePingBatch(dst []byte, batch []sample.Sample) []byte {
	dst = append(dst, FramePings)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		dst = e.AppendPing(dst, batch[i])
	}
	return dst
}

// EncodeTraceBatch frames count-prefixed traces into a FrameTraces
// payload (type byte included), appended to dst.
func (e *Encoder) EncodeTraceBatch(dst []byte, batch []sample.TraceSample) []byte {
	dst = append(dst, FrameTraces)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		dst = e.AppendTrace(dst, batch[i])
	}
	return dst
}

// Decoder mirrors Encoder: it rebuilds the dictionary and delta
// baselines as batches arrive, in stream order.
type Decoder struct {
	dict           []string
	lastPingCycle  int64
	lastTraceCycle int64
}

// NewDecoder returns a fresh per-stream decoder.
func NewDecoder() *Decoder { return &Decoder{dict: make([]string, 0, 256)} }

// dictString resolves one dictionary reference: id 0 introduces a
// string inline and assigns it the next id, any other id must already
// be known.
func (d *Decoder) dictString(c *binfmt.Dec) string {
	id := c.Uvarint()
	switch {
	case c.Err() != nil:
		return ""
	case id == 0 && len(d.dict) >= maxDict:
		c.Fail(fmt.Errorf("%w (%d)", ErrDictFull, maxDict))
		return ""
	case id == 0:
		s := c.String(maxString)
		if c.Err() == nil {
			d.dict = append(d.dict, s)
		}
		return s
	case id > uint64(len(d.dict)):
		c.Fail(fmt.Errorf("wirecodec: string ref %d beyond dictionary of %d", id, len(d.dict)))
		return ""
	}
	return d.dict[id-1]
}

// uint32Of reads a uvarint that must fit 32 bits (ASNs, IPv4 addresses).
func uint32Of(c *binfmt.Dec, what string) uint32 {
	v := c.Uvarint()
	if v > math.MaxUint32 {
		c.Fail(fmt.Errorf("wirecodec: %s %d overflows uint32", what, v))
	}
	return uint32(v)
}

func (d *Decoder) readVP(c *binfmt.Dec) sample.VantagePoint {
	return sample.VantagePoint{
		ProbeID:   d.dictString(c),
		Platform:  d.dictString(c),
		Country:   d.dictString(c),
		Continent: geo.Continent(c.Byte()),
		ISP:       asn.Number(uint32Of(c, "ASN")),
		Access:    lastmile.Access(c.Byte()),
	}
}

func (d *Decoder) readTarget(c *binfmt.Dec) sample.Target {
	return sample.Target{
		Region:    d.dictString(c),
		Provider:  d.dictString(c),
		Country:   d.dictString(c),
		Continent: geo.Continent(c.Byte()),
		IP:        netaddr.IP(uint32Of(c, "IP")),
	}
}

// batch opens a record batch payload (type byte included) of the given
// frame type and returns a cursor at its first record plus the count.
func batch(payload []byte, typ byte, what string) (binfmt.Dec, uint64, error) {
	if len(payload) < 1 || payload[0] != typ {
		return binfmt.Dec{}, 0, fmt.Errorf("wirecodec: not a %s batch", what)
	}
	c := binfmt.NewDec(payload[1:])
	count := c.Uvarint()
	return c, count, c.Err()
}

// DecodePings walks a FramePings payload (type byte included), calling
// fn per record. A fn error aborts the walk and is returned as-is.
func (d *Decoder) DecodePings(payload []byte, fn func(sample.Sample) error) error {
	c, count, err := batch(payload, FramePings, "ping")
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		s := sample.Sample{VP: d.readVP(&c), Target: d.readTarget(&c)}
		s.Protocol, s.RTTms = sample.Protocol(c.Byte()), c.Float64()
		d.lastPingCycle += c.Zigzag()
		s.Cycle = int(d.lastPingCycle)
		// VTime is derived, never carried: re-deriving from (cycle,
		// country) reproduces the producer's stamp bit-for-bit.
		s.VTime = sample.VTimeOf(s.Cycle, s.VP.Country)
		if err := c.Err(); err != nil {
			return fmt.Errorf("ping %d/%d: %w", i, count, err)
		}
		if err := fn(s); err != nil {
			return err
		}
	}
	return c.End()
}

// DecodeTraces walks a FrameTraces payload (type byte included),
// calling fn per record.
func (d *Decoder) DecodeTraces(payload []byte, fn func(sample.TraceSample) error) error {
	c, count, err := batch(payload, FrameTraces, "trace")
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		t := sample.TraceSample{VP: d.readVP(&c), Target: d.readTarget(&c)}
		d.lastTraceCycle += c.Zigzag()
		t.Cycle = int(d.lastTraceCycle)
		t.VTime = sample.VTimeOf(t.Cycle, t.VP.Country)
		if nhops := c.Count(maxHops); nhops > 0 {
			t.Hops = make([]sample.Hop, nhops)
		}
		prevTTL := int64(0)
		for h := range t.Hops {
			prevTTL += c.Zigzag()
			hop := sample.Hop{TTL: int(prevTTL), IP: netaddr.IP(uint32Of(&c, "hop IP"))}
			flag := c.Byte()
			if flag > 1 {
				c.Fail(fmt.Errorf("wirecodec: hop flag %d is not a bool", flag))
			}
			hop.Responded, hop.RTTms = flag == 1, c.Float64()
			t.Hops[h] = hop
		}
		if err := c.Err(); err != nil {
			return fmt.Errorf("trace %d/%d: %w", i, count, err)
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return c.End()
}
