// Package dataset defines the measurement records the campaign
// produces — ping data points and traceroutes, mirroring the fields of
// the published dataset (§3.3) — together with an in-memory store and
// CSV/JSONL codecs.
//
// The record model itself lives in repro/internal/sample; this package
// re-exports it under its historical names (PingRecord,
// TracerouteRecord, ...) via type aliases, so producers and consumers
// share one model rather than converting between two.
package dataset

import (
	"repro/internal/geo"
	"repro/internal/sample"
)

// Protocol is the measurement protocol. The campaign runs TCP pings and
// ICMP traceroutes in parallel (§3.3).
type Protocol = sample.Protocol

// Protocols.
const (
	TCP  = sample.TCP
	ICMP = sample.ICMP
)

// ParseProtocol is the inverse of Protocol.String.
func ParseProtocol(s string) (Protocol, error) { return sample.ParseProtocol(s) }

// VantagePoint captures the probe-side fields every record carries.
type VantagePoint = sample.VantagePoint

// Target captures the endpoint-side fields.
type Target = sample.Target

// PingRecord is one round-trip measurement.
type PingRecord = sample.Sample

// Hop is one traceroute hop as captured on the wire: the pipeline adds
// AS attribution later.
type Hop = sample.Hop

// TracerouteRecord is one ICMP traceroute.
type TracerouteRecord = sample.TraceSample

// Store accumulates measurement records in memory. The zero value is
// ready for use. Store is not safe for concurrent mutation; the
// campaign engine serializes writes through a single collector.
type Store struct {
	Pings  []PingRecord
	Traces []TracerouteRecord
}

// FromRecords builds a Store from pre-existing record slices (without
// copying). It is the sanctioned way to wrap decoded slices — direct
// composite literals over Pings/Traces are rejected by cloudyvet so the
// sink path stays the only ingestion door.
func FromRecords(pings []PingRecord, traces []TracerouteRecord) *Store {
	s := &Store{}
	s.Pings = pings
	s.Traces = traces
	return s
}

// AddPing appends a ping record.
func (s *Store) AddPing(r PingRecord) { s.Pings = append(s.Pings, r) }

// AddTrace appends a traceroute record.
func (s *Store) AddTrace(r TracerouteRecord) { s.Traces = append(s.Traces, r) }

// PingFilter selects ping records; zero fields match everything.
type PingFilter struct {
	Platform        string
	Protocol        *Protocol
	VPContinent     geo.Continent
	VPCountry       string
	Provider        string
	TargetContinent geo.Continent
	TargetCountry   string
}

func (f PingFilter) match(r *PingRecord) bool {
	if f.Platform != "" && r.VP.Platform != f.Platform {
		return false
	}
	if f.Protocol != nil && r.Protocol != *f.Protocol {
		return false
	}
	if f.VPContinent != geo.ContinentUnknown && r.VP.Continent != f.VPContinent {
		return false
	}
	if f.VPCountry != "" && r.VP.Country != f.VPCountry {
		return false
	}
	if f.Provider != "" && r.Target.Provider != f.Provider {
		return false
	}
	if f.TargetContinent != geo.ContinentUnknown && r.Target.Continent != f.TargetContinent {
		return false
	}
	if f.TargetCountry != "" && r.Target.Country != f.TargetCountry {
		return false
	}
	return true
}

// FilterPings returns the ping records matching f, in insertion order.
func (s *Store) FilterPings(f PingFilter) []PingRecord {
	var out []PingRecord
	for i := range s.Pings {
		if f.match(&s.Pings[i]) {
			out = append(out, s.Pings[i])
		}
	}
	return out
}

// RTTs extracts the RTT series of the ping records matching f.
func (s *Store) RTTs(f PingFilter) []float64 {
	var out []float64
	for i := range s.Pings {
		if f.match(&s.Pings[i]) {
			out = append(out, s.Pings[i].RTTms)
		}
	}
	return out
}

// Len returns (pings, traceroutes) counts.
func (s *Store) Len() (int, int) { return len(s.Pings), len(s.Traces) }

// Merge appends all records of other into s.
func (s *Store) Merge(other *Store) {
	s.Pings = append(s.Pings, other.Pings...)
	s.Traces = append(s.Traces, other.Traces...)
}
