// Package pipeline processes raw traceroutes the way §3.3 and §6.1 of
// the paper do: it resolves router hops to ASes (PyASN / Team Cymru
// equivalent), enriches them with organization metadata (PeeringDB
// equivalent), tags and strips IXP hops (CAIDA IXP dataset), infers the
// last-mile segment and its access type from the path shape, classifies
// the ISP–cloud interconnection (direct / one intermediate AS / public
// Internet / via IXP), and computes route pervasiveness — the fraction
// of on-path routers owned by the cloud provider (Fig 11).
package pipeline

import (
	"repro/internal/asn"
	"repro/internal/dataset"
	"repro/internal/world"
)

// Class is the interconnection classification derived from a path.
type Class uint8

// Interconnection classes, labelled as in Figure 10/12a/13a.
const (
	ClassUnknown   Class = iota
	ClassDirect          // ISP and cloud are adjacent
	ClassDirectIXP       // adjacent across an exchange fabric
	ClassPrivate         // exactly one intermediate AS (private interconnect)
	ClassPublic          // two or more intermediate ASes
)

// String returns the figure label.
func (c Class) String() string {
	switch c {
	case ClassDirect:
		return "direct"
	case ClassDirectIXP:
		return "1 IXP"
	case ClassPrivate:
		return "1 AS"
	case ClassPublic:
		return "2+ AS"
	default:
		return "?"
	}
}

// ProbeKind is the access type inferred from the path shape (§5): a
// private first hop implies a home router (WiFi), a direct first hop
// into the ISP implies cellular. Wired managed probes look identical to
// cellular on the wire; the platform field disambiguates them.
type ProbeKind uint8

// Inferred access kinds.
const (
	KindUnknown ProbeKind = iota
	KindHome
	KindCell
	KindWired
)

// String returns the paper's label.
func (k ProbeKind) String() string {
	switch k {
	case KindHome:
		return "home"
	case KindCell:
		return "cell"
	case KindWired:
		return "wired"
	default:
		return "?"
	}
}

// ASHop is one AS-level step of the resolved path.
type ASHop struct {
	ASN     asn.Number
	Name    string
	Type    asn.Type
	Routers int // responding routers attributed to this AS
}

// LastMile is the inferred access segment.
type LastMile struct {
	Kind ProbeKind
	// UserToISPms is the RTT of the first hop inside the serving ISP
	// (the USR-ISP segment).
	UserToISPms float64
	// RouterToISPms is the wired tail between home router and ISP
	// (RTR-ISP); zero when no private first hop was observed.
	RouterToISPms float64
	// ShareOfTotal is UserToISPms over the end-to-end RTT, in [0,1].
	ShareOfTotal float64
}

// Processed is the fully analyzed traceroute.
type Processed struct {
	Record *dataset.TracerouteRecord

	// ASPath is the AS-level path with IXPs removed, consecutive
	// duplicates collapsed, starting at the serving ISP.
	ASPath []ASHop
	// IXPs lists exchange ASNs seen on the path.
	IXPs []asn.Number
	// Class is the interconnection classification; ClassUnknown when
	// the trace never reached the provider network.
	Class Class
	// Intermediates counts ASes strictly between serving ISP and cloud.
	Intermediates int
	// LastMile is the inferred access segment.
	LastMile LastMile
	// Pervasiveness is provider-owned responding routers over all
	// responding public routers on the path.
	Pervasiveness float64
	// EndToEndRTTms is the RTT at the last responding hop.
	EndToEndRTTms float64
	// ReachedCloud reports whether any hop resolved into the provider's
	// network.
	ReachedCloud bool
	// NonMonotoneHops counts responding hops whose RTT is lower than an
	// earlier hop's — the path-inflation artifact the paper cites
	// (Fontugne et al.) as a reason to treat traceroute latencies as
	// best-case estimates.
	NonMonotoneHops int
}

// Processor resolves traceroutes against a world's registries.
type Processor struct {
	W *world.World
}

// NewProcessor returns a processor over the given world.
func NewProcessor(w *world.World) *Processor { return &Processor{W: w} }

// Process analyzes one traceroute.
func (pr *Processor) Process(rec *dataset.TracerouteRecord) Processed {
	out := Processed{Record: rec, EndToEndRTTms: rec.RTTms()}
	providerAS := pr.providerASN(rec.Target.Provider)

	out.LastMile = pr.inferLastMile(rec, out.EndToEndRTTms)

	// Stage 1: hop → AS attribution.
	var path []ASHop
	providerRouters, publicRouters := 0, 0
	for _, h := range rec.Hops {
		if !h.Responded || h.IP.IsPrivate() {
			continue
		}
		a, ok := pr.W.Registry.ResolveIP(h.IP)
		if !ok {
			continue // unresolvable hop (the Team Cymru fallback missed too)
		}
		publicRouters++
		if a.Number == providerAS {
			providerRouters++
		}
		if a.Type == asn.TypeIXP {
			out.IXPs = append(out.IXPs, a.Number)
			continue // exchanges are stripped from the AS-level topology
		}
		if n := len(path); n > 0 && path[n-1].ASN == a.Number {
			path[n-1].Routers++
			continue
		}
		path = append(path, ASHop{ASN: a.Number, Name: a.Name, Type: a.Type, Routers: 1})
	}
	out.ASPath = path
	if publicRouters > 0 {
		out.Pervasiveness = float64(providerRouters) / float64(publicRouters)
	}
	maxSeen := 0.0
	for _, h := range rec.Hops {
		if !h.Responded {
			continue
		}
		if h.RTTms < maxSeen {
			out.NonMonotoneHops++
		} else {
			maxSeen = h.RTTms
		}
	}

	// Stage 2: interconnection classification (§6.1).
	ispIdx, cloudIdx := -1, -1
	for i, h := range path {
		if ispIdx < 0 && h.ASN == rec.VP.ISP {
			ispIdx = i
		}
		if h.ASN == providerAS {
			cloudIdx = i
			break
		}
	}
	if cloudIdx >= 0 {
		out.ReachedCloud = true
	}
	if ispIdx >= 0 && cloudIdx > ispIdx {
		out.Intermediates = cloudIdx - ispIdx - 1
		switch {
		case out.Intermediates == 0 && len(out.IXPs) > 0:
			out.Class = ClassDirectIXP
		case out.Intermediates == 0:
			out.Class = ClassDirect
		case out.Intermediates == 1:
			out.Class = ClassPrivate
		default:
			out.Class = ClassPublic
		}
	}
	return out
}

// inferLastMile applies the §5 methodology: the first hop inside the
// serving ISP carries the USR-ISP latency; a preceding private hop
// exposes the home split.
func (pr *Processor) inferLastMile(rec *dataset.TracerouteRecord, total float64) LastMile {
	lm := LastMile{}
	if len(rec.Hops) == 0 {
		return lm
	}
	privateRTT := -1.0
	for _, h := range rec.Hops {
		if !h.Responded {
			continue
		}
		if h.IP.IsPrivate() {
			if privateRTT < 0 {
				privateRTT = h.RTTms
			}
			continue
		}
		a, ok := pr.W.Registry.ResolveIP(h.IP)
		if !ok || a.Number != rec.VP.ISP {
			return lm // first public hop outside the serving ISP: no inference
		}
		lm.UserToISPms = h.RTTms
		if privateRTT >= 0 {
			lm.Kind = KindHome
			if d := h.RTTms - privateRTT; d > 0 {
				lm.RouterToISPms = d
			}
		} else if rec.VP.Platform == "atlas" {
			lm.Kind = KindWired
			lm.RouterToISPms = h.RTTms
		} else {
			lm.Kind = KindCell
		}
		if total > 0 {
			lm.ShareOfTotal = lm.UserToISPms / total
			if lm.ShareOfTotal > 1 {
				lm.ShareOfTotal = 1
			}
		}
		return lm
	}
	return lm
}

func (pr *Processor) providerASN(code string) asn.Number {
	if p, ok := pr.W.Inventory.Provider(code); ok {
		return p.ASN
	}
	return 0
}

// ProcessAll analyzes every traceroute in the store.
func (pr *Processor) ProcessAll(store *dataset.Store) []Processed {
	out := make([]Processed, 0, len(store.Traces))
	for i := range store.Traces {
		out = append(out, pr.Process(&store.Traces[i]))
	}
	return out
}
