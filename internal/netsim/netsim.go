// Package netsim emulates the data plane of the synthetic Internet: it
// turns a <probe, cloud region> pair into the TCP ping RTTs and ICMP
// traceroutes the measurement campaign records.
//
// The latency model composes, in order: the wireless (or wired)
// last-mile, the serving ISP's intra-country aggregation, the AS-level
// transit path with geography-aware waypoints and per-region
// path-inflation factors, and finally the cloud segment — which rides
// the provider's private WAN at low inflation and low jitter when the
// interconnection is direct or private, and the public Internet
// otherwise. That composition is what reproduces every latency shape in
// the paper: distance dominates (§4.1), wireless adds a 2-3× last-mile
// penalty over wired (§4.2, §5), and direct peering tames the tails on
// long under-provisioned routes while barely moving the median in
// Europe (§6.2).
//
// All sampling is deterministic: each measurement derives its RNG from
// a hash of (world seed, probe, region, protocol, cycle), so campaigns
// are reproducible and safe to run from many goroutines.
package netsim

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/asn"
	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/detrand"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/lastmile"
	"repro/internal/netaddr"
	"repro/internal/probes"
	"repro/internal/sample"
	"repro/internal/world"
)

// FibreKmPerMsRTT converts fibre distance to round-trip milliseconds:
// light in fibre covers ≈200 km per one-way millisecond, i.e. 100 km
// per RTT millisecond.
const FibreKmPerMsRTT = 100.0

// Simulator evaluates measurements over a built world. It is safe for
// concurrent use.
type Simulator struct {
	W        *world.World
	LastMile lastmile.Model

	// UnresponsiveHopProb is the chance a mid-path router ignores the
	// traceroute probe (default 0.08).
	UnresponsiveHopProb float64
	// CGNCellProb is the fraction of cellular probes behind a
	// carrier-grade NAT whose first hop shows a 100.64/10 address —
	// the misclassification caveat of §5 (default 0.08).
	CGNCellProb float64
	// PublicRouterWiFiProb is the fraction of home probes whose router
	// answers with a public address, hiding the home segment (default
	// 0.05).
	PublicRouterWiFiProb float64
	// DisablePrivateWAN is an ablation switch: cloud segments always
	// ride public-Internet inflation and jitter, even behind direct
	// peering — isolating what the providers' private backbones buy.
	DisablePrivateWAN bool
	// Faults, when set, injects data-plane corruption: RTT outliers and
	// truncated traceroutes with extra missing hops. Fault draws hash
	// their own keys and never consume this simulator's RNG stream, so
	// the un-faulted samples are bit-identical with Faults nil or set.
	Faults faults.Injector
	// Events, when set, applies timeline events (cable cuts) to the
	// data plane. Event penalties are additive and drawn from no RNG,
	// so unaffected measurements are bit-identical with Events nil or
	// set.
	Events *Events
}

// New returns a simulator with the paper-calibrated defaults.
func New(w *world.World) *Simulator {
	return &Simulator{
		W:                    w,
		LastMile:             lastmile.DefaultModel(),
		UnresponsiveHopProb:  0.08,
		CGNCellProb:          0.08,
		PublicRouterWiFiProb: 0.05,
	}
}

// rngs recycles the per-measurement generators across goroutines. Each
// is a detrand source, which re-seeds without computing its register,
// so a measurement reads math/rand's stream for its seed and allocates
// nothing to do it.
var rngs = sync.Pool{New: func() any { return detrand.New(0) }}

// rngFor derives the deterministic per-measurement RNG, seeded from a
// hash of (probe, region, protocol, cycle, world seed). The caller puts
// it back into rngs when the measurement is done.
func (s *Simulator) rngFor(probeID, regionID string, proto dataset.Protocol, cycle int) *rand.Rand {
	rng := rngs.Get().(*rand.Rand)
	rng.Seed(detrand.NewHash().Str(probeID).Byte(0).Str(regionID).
		Bytes(byte(proto), byte(cycle), byte(cycle>>8), byte(cycle>>16)).
		Int64(s.W.Config.Seed).Seed())
	return rng
}

// segment is one wired stretch of the path with its owner AS and the
// constants its RTT draws start from.
type segment struct {
	owner        asn.Number
	privateWAN   bool
	routersAtEnd int     // routers the owner answers with at the end of the segment
	base         float64 // propagation RTT, ms: fibre distance times inflation
	jitterScale  float64 // congestion jitter relative to the base
}

// leg is a stretch of the path as buildPlan lays it: two end points and
// their countries, which set the inflation.
type leg struct {
	from, to   geo.Point
	fromC, toC string
}

// segment prices the leg once per plan; segmentRTT adds the per-draw
// router and jitter terms.
func (l leg) segment(owner asn.Number, privateWAN bool, routersAtEnd int) segment {
	inflation := world.PathInflation(l.fromC, l.toC)
	jitterScale := 0.06 + (inflation-1.3)*0.09 // poorly provisioned ⇒ noisier
	if jitterScale < 0.04 {
		jitterScale = 0.04
	}
	if privateWAN {
		inflation = world.PrivateWANInflationFor(l.fromC, l.toC)
		jitterScale = 0.015
	}
	return segment{
		owner: owner, privateWAN: privateWAN, routersAtEnd: routersAtEnd,
		base:        geo.DistanceKm(l.from, l.to) / FibreKmPerMsRTT * inflation,
		jitterScale: jitterScale,
	}
}

// plan is the full forwarding plan for one <probe, region> pair.
type plan struct {
	kind     world.Interconnect
	asPath   []asn.Number
	segments []segment
	ixp      *world.IXP // non-nil when the peering happens at an exchange
}

// buildPlan lays the geographic waypoints of the path.
func (s *Simulator) buildPlan(p *probes.Probe, r *cloud.Region) plan {
	asPath, kind, ok := s.W.CloudPath(p.ISP, r)
	if !ok || len(asPath) == 0 {
		// Unreachable pairs do not occur in a well-formed world; treat
		// as a degenerate single-segment path to keep callers total.
		return plan{kind: world.IcPublic, asPath: []asn.Number{p.ISP.Number, r.Provider.ASN},
			segments: []segment{leg{from: p.Loc, to: r.Loc, fromC: p.Country, toC: r.Country}.
				segment(r.Provider.ASN, false, 1)}}
	}
	// One segment per AS hand-off, plus the provider edge and the cloud
	// segment proper.
	pl := plan{kind: kind, asPath: asPath, segments: make([]segment, 0, len(asPath)+1)}
	if kind == world.IcDirectIXP {
		pl.ixp = s.W.IXPForPeering(p.ISP)
	}

	cur, curC := p.Loc, p.Country
	// Serving-ISP aggregation: probe location to the ISP PoP.
	ispPoP, _ := s.W.NearestPoP(p.ISP.Number, p.Loc)
	pl.segments = append(pl.segments,
		leg{from: cur, to: ispPoP.Loc, fromC: curC, toC: ispPoP.Country}.segment(p.ISP.Number, false, 2))
	cur, curC = ispPoP.Loc, ispPoP.Country

	in := s.W.CloudIngress(kind, p.Loc, r)
	ingress, ingressC := in.Loc, in.Country

	// Transit ASes walk from the ISP PoP towards the cloud ingress.
	inter := asPath[1 : len(asPath)-1]
	for i, a := range inter {
		frac := float64(i+1) / float64(len(inter)+1)
		towards := geo.Interpolate(cur, ingress, frac)
		pop, ok := s.W.NearestPoP(a, towards)
		if !ok {
			pop = world.PoP{Loc: towards, Country: curC}
		}
		// Carriers answer with at least two routers: a transit AS
		// vanishing entirely from a trace should be rare, as the §6.1
		// classification depends on seeing it.
		pl.segments = append(pl.segments,
			leg{from: cur, to: pop.Loc, fromC: curC, toC: pop.Country}.segment(a, false, 2+i%2))
		cur, curC = pop.Loc, pop.Country
	}

	// Hand-off into the provider edge.
	if cur != ingress {
		pl.segments = append(pl.segments,
			leg{from: cur, to: ingress, fromC: curC, toC: ingressC}.segment(r.Provider.ASN, false, 1))
		cur, curC = ingress, ingressC
	}
	// The cloud segment proper: ingress to the datacenter.
	wanPrivate := !s.DisablePrivateWAN && r.Provider.Backbone != cloud.BackbonePublic &&
		(kind == world.IcDirect || kind == world.IcDirectIXP || kind == world.IcPrivateTransit)
	dist := geo.DistanceKm(cur, r.Loc)
	routers := 1 + int(dist/3000)
	if wanPrivate {
		routers += 2
	}
	if routers > 6 {
		routers = 6
	}
	pl.segments = append(pl.segments,
		leg{from: cur, to: r.Loc, fromC: curC, toC: r.Country}.segment(r.Provider.ASN, wanPrivate, routers))
	return pl
}

// wiredRTT evaluates the wired part of the plan (everything past the
// last-mile): base propagation plus congestion jitter.
func (s *Simulator) wiredRTT(pl plan, rng *rand.Rand) float64 {
	var total float64
	for _, seg := range pl.segments {
		total += s.segmentRTT(seg, rng)
	}
	return total
}

func (s *Simulator) segmentRTT(seg segment, rng *rand.Rand) float64 {
	// Router processing: a fraction of a millisecond per hop.
	base := seg.base + float64(seg.routersAtEnd)*(0.15+rng.Float64()*0.2)
	// Multiplicative congestion jitter with an occasional spike on
	// public segments.
	jitter := base * seg.jitterScale * math.Abs(rng.NormFloat64())
	if !seg.privateWAN && rng.Float64() < 0.02 {
		jitter += base * (0.3 + rng.Float64()*0.9)
	}
	return base + jitter
}

// lastMileScale damps the access latency for countries with unusually
// fast urban wireless deployments. China is the one country the paper
// finds under the 20 ms MTP bound end-to-end (§4.1), which is only
// possible on a fast last-mile.
func lastMileScale(country string) float64 {
	switch country {
	case "CN":
		return 0.45
	case "KR", "JP":
		return 0.85
	default:
		return 1.0
	}
}

// drawLastMile samples the probe's access segment.
func (s *Simulator) drawLastMile(p *probes.Probe, rng *rand.Rand) lastmile.Sample {
	sample := s.LastMile.Draw(p.Access, rng)
	scale := lastMileScale(p.Country)
	sample.UserToISPms *= scale
	sample.RouterToISPms *= scale
	return sample
}

// Pair is one <probe, region> pair with its forwarding plan laid once.
// A campaign task runs its pings and traceroutes through one Pair; the
// plan is a pure function of the pair, so every measurement reads the
// same values it would from a freshly built one. A Pair holds no
// generator state and is safe for concurrent use.
type Pair struct {
	s      *Simulator
	probe  *probes.Probe
	region *cloud.Region
	pl     plan
	vp     dataset.VantagePoint
	target dataset.Target
}

// Pair lays the forwarding plan of a <probe, region> pair.
func (s *Simulator) Pair(p *probes.Probe, r *cloud.Region) Pair {
	return Pair{s: s, probe: p, region: r, pl: s.buildPlan(p, r), vp: s.vantage(p), target: s.target(r)}
}

// Ping runs one ping measurement over a freshly laid plan (see
// Pair.Ping).
func (s *Simulator) Ping(p *probes.Probe, r *cloud.Region, proto dataset.Protocol, cycle int) dataset.PingRecord {
	return s.Pair(p, r).Ping(proto, cycle)
}

// Traceroute runs one ICMP traceroute over a freshly laid plan (see
// Pair.Traceroute).
func (s *Simulator) Traceroute(p *probes.Probe, r *cloud.Region, cycle int) dataset.TracerouteRecord {
	return s.Pair(p, r).Traceroute(cycle)
}

// Ping runs one ping measurement. TCP pings measure the end-to-end
// handshake RTT; ICMP echoes run marginally higher with more variance,
// matching the within-2% gap §3.3 reports for Speedchecker.
func (pr Pair) Ping(proto dataset.Protocol, cycle int) dataset.PingRecord {
	s, p, r := pr.s, pr.probe, pr.region
	rng := s.rngFor(p.ID, r.ID, proto, cycle)
	defer rngs.Put(rng)
	lm := s.drawLastMile(p, rng)
	rtt := lm.UserToISPms + s.wiredRTT(pr.pl, rng)
	if proto == dataset.ICMP {
		rtt *= 1.015
		rtt += math.Abs(rng.NormFloat64()) * 1.2
	}
	if s.Faults != nil {
		rtt = s.Faults.CorruptRTT(p.ID, r.ID, cycle, rtt)
	}
	rtt += s.Events.ExtraRTT(p.Country, r.Country, sample.CampaignCycle(cycle))
	return dataset.PingRecord{
		VP:       pr.vp,
		Target:   pr.target,
		Protocol: proto,
		RTTms:    rtt,
		Cycle:    cycle,
		VTime:    sample.VTimeOf(cycle, p.Country),
	}
}

// Traceroute runs one ICMP traceroute, reproducing the capture
// artifacts the paper has to cope with: private and CGN first hops,
// unresponsive routers, IXP hops that only sometimes appear, and the
// occasional truncated trace.
func (pr Pair) Traceroute(cycle int) dataset.TracerouteRecord {
	s, p, r, pl := pr.s, pr.probe, pr.region, pr.pl
	rng := s.rngFor(p.ID, r.ID, dataset.ICMP, cycle)
	defer rngs.Put(rng)
	lm := s.drawLastMile(p, rng)

	var tf faults.TraceFault
	if s.Faults != nil {
		tf = s.Faults.Trace(p.ID, r.ID, cycle)
	}
	// Room for every hop the plan can answer with: two last-mile hops,
	// the segments' routers, the exchange and the target.
	maxHops := 4
	for _, seg := range pl.segments {
		maxHops += seg.routersAtEnd
	}
	rec := dataset.TracerouteRecord{
		VP: pr.vp, Target: pr.target, Cycle: cycle,
		VTime: sample.VTimeOf(cycle, p.Country),
		Hops:  make([]dataset.Hop, 0, maxHops),
	}
	ttl := 0
	cum := 0.0
	// A cable cut inflates the long-haul: the detour lands on the final
	// (cloud) segment, shifting its hops and the destination RTT.
	eventExtra := s.Events.ExtraRTT(p.Country, r.Country, sample.CampaignCycle(cycle))
	addHop := func(ip netaddr.IP, rtt float64, forceRespond bool) {
		ttl++
		h := dataset.Hop{TTL: ttl, IP: ip, RTTms: rtt, Responded: true}
		if !forceRespond && rng.Float64() < s.UnresponsiveHopProb {
			h = dataset.Hop{TTL: ttl, Responded: false}
		}
		// Injected hop loss draws only when a fault plan asks for it, so
		// a fault-free simulator's RNG stream is untouched.
		if h.Responded && !forceRespond && tf.DropHopProb > 0 && rng.Float64() < tf.DropHopProb {
			h = dataset.Hop{TTL: ttl, Responded: false}
		}
		rec.Hops = append(rec.Hops, h)
	}

	// Last-mile hops. The first responding hop inside the ISP carries
	// the full USR-ISP latency; a preceding private hop exposes the
	// home-router split the paper uses to isolate the wireless segment.
	switch p.Access {
	case lastmile.WiFi:
		if rng.Float64() < s.PublicRouterWiFiProb {
			// Router answers with a public ISP address: the home
			// segment is invisible and the probe looks cellular.
			addHop(s.W.RouterIP(p.ISP.Number, hopIndex(rng)), lm.UserToISPms, true)
		} else {
			air := lm.UserToISPms - lm.RouterToISPms
			addHop(netaddr.MustParseIP("192.168.1.1"), air, true)
			addHop(s.W.RouterIP(p.ISP.Number, hopIndex(rng)), lm.UserToISPms, true)
		}
	case lastmile.Cellular:
		if rng.Float64() < s.CGNCellProb {
			cgn := netaddr.MustParsePrefix("100.64.0.0/10").Nth(uint64(rng.Intn(1 << 16)))
			addHop(cgn, lm.UserToISPms*0.7, true)
			addHop(s.W.RouterIP(p.ISP.Number, hopIndex(rng)), lm.UserToISPms, true)
		} else {
			addHop(s.W.RouterIP(p.ISP.Number, hopIndex(rng)), lm.UserToISPms, true)
		}
	default: // wired
		addHop(s.W.RouterIP(p.ISP.Number, hopIndex(rng)), lm.UserToISPms, true)
	}
	cum = lm.UserToISPms

	// Wired segments, hop by hop.
	for i, seg := range pl.segments {
		segRTT := s.segmentRTT(seg, rng)
		if i == len(pl.segments)-1 {
			segRTT += eventExtra
		}
		cum += segRTT
		perHop := segRTT / float64(seg.routersAtEnd)
		at := cum - segRTT
		for h := 0; h < seg.routersAtEnd; h++ {
			at += perHop
			noise := math.Abs(rng.NormFloat64()) * 0.8
			addHop(s.W.RouterIP(seg.owner, hopIndex(rng)), at+noise, false)
		}
		// The exchange fabric sits between the serving ISP and the
		// provider edge, and answers only sometimes (§6.1 caveat).
		if pl.ixp != nil && i == 0 && rng.Float64() < 0.7 {
			addHop(pl.ixp.Prefix.Nth(uint64(2+rng.Intn(200))), cum+0.3, false)
		}
	}

	// Destination VM. A small fraction of traces die before the target.
	if rng.Float64() < 0.02 && len(rec.Hops) > 2 {
		rec.Hops = rec.Hops[:len(rec.Hops)-1-rng.Intn(2)]
		return truncateTrace(rec, tf)
	}
	ttl++
	rec.Hops = append(rec.Hops, dataset.Hop{
		TTL: ttl, IP: pr.target.IP, RTTms: cum + 0.2 + math.Abs(rng.NormFloat64())*0.5,
		Responded: true,
	})
	return truncateTrace(rec, tf)
}

// truncateTrace applies an injected mid-path capture death: the tail of
// the trace — including the target — never comes back.
func truncateTrace(rec dataset.TracerouteRecord, tf faults.TraceFault) dataset.TracerouteRecord {
	if tf.MaxHops > 0 && len(rec.Hops) > tf.MaxHops {
		rec.Hops = rec.Hops[:tf.MaxHops]
	}
	return rec
}

func hopIndex(rng *rand.Rand) int { return rng.Intn(4096) }

func (s *Simulator) vantage(p *probes.Probe) dataset.VantagePoint {
	return dataset.VantagePoint{
		ProbeID: p.ID, Platform: p.Platform.String(), Country: p.Country,
		Continent: p.Continent, ISP: p.ISP.Number, Access: p.Access,
	}
}

func (s *Simulator) target(r *cloud.Region) dataset.Target {
	return dataset.Target{
		Region: r.ID, Provider: r.Provider.Code, Country: r.Country,
		Continent: r.Continent, IP: s.W.RegionIP(r),
	}
}
