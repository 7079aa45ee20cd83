package asn

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/netaddr"
)

func mkAS(n Number, t Type, country string, users float64, prefixes ...string) *AS {
	a := &AS{Number: n, Name: n.String(), Type: t, Country: country, Users: users}
	for _, p := range prefixes {
		a.Prefixes = append(a.Prefixes, netaddr.MustParsePrefix(p))
	}
	return a
}

func TestRegisterAndLookup(t *testing.T) {
	var r Registry
	a := mkAS(3320, TypeAccess, "DE", 30, "84.128.0.0/10")
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Lookup(3320)
	if !ok || got != a {
		t.Fatal("lookup after register failed")
	}
	if _, ok := r.Lookup(9999); ok {
		t.Error("lookup of unregistered ASN should miss")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	var r Registry
	if err := r.Register(mkAS(100, TypeTier1, "US", 0, "5.0.0.0/8")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(mkAS(100, TypeTier2, "US", 0)); err == nil {
		t.Error("duplicate ASN should fail")
	}
	if err := r.Register(nil); err == nil {
		t.Error("nil AS should fail")
	}
	if err := r.Register(&AS{Number: 0}); err == nil {
		t.Error("AS0 should fail")
	}
}

func TestResolveIP(t *testing.T) {
	var r Registry
	if err := r.Register(mkAS(1299, TypeTier1, "SE", 0, "62.115.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(mkAS(3209, TypeAccess, "DE", 25, "78.32.0.0/11")); err != nil {
		t.Fatal(err)
	}
	a, ok := r.ResolveIP(netaddr.MustParseIP("62.115.44.1"))
	if !ok || a.Number != 1299 {
		t.Errorf("ResolveIP = %v, %v", a, ok)
	}
	a, ok = r.ResolveIP(netaddr.MustParseIP("78.40.0.1"))
	if !ok || a.Number != 3209 {
		t.Errorf("ResolveIP = %v, %v", a, ok)
	}
	if _, ok := r.ResolveIP(netaddr.MustParseIP("8.8.8.8")); ok {
		t.Error("unannounced space should not resolve")
	}
	// Private and CGN space never resolves even if someone announced a
	// covering prefix.
	if _, ok := r.ResolveIP(netaddr.MustParseIP("192.168.1.1")); ok {
		t.Error("private space should not resolve")
	}
	if _, ok := r.ResolveIP(netaddr.MustParseIP("100.64.3.2")); ok {
		t.Error("CGN space should not resolve")
	}
}

func TestByTypeAndAccessIn(t *testing.T) {
	var r Registry
	must := func(a *AS) {
		t.Helper()
		if err := r.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	must(mkAS(3320, TypeAccess, "DE", 30, "84.128.0.0/10"))
	must(mkAS(3209, TypeAccess, "DE", 25, "78.32.0.0/11"))
	must(mkAS(6805, TypeAccess, "DE", 20, "91.0.0.0/10"))
	must(mkAS(2516, TypeAccess, "JP", 40, "106.128.0.0/10"))
	must(mkAS(1299, TypeTier1, "SE", 0, "62.115.0.0/16"))

	de := r.AccessIn("DE")
	if len(de) != 3 {
		t.Fatalf("AccessIn(DE) = %d entries", len(de))
	}
	if de[0].Number != 3320 || de[1].Number != 3209 || de[2].Number != 6805 {
		t.Errorf("AccessIn(DE) not sorted by users: %v %v %v", de[0].Number, de[1].Number, de[2].Number)
	}
	if got := len(r.AccessIn("FR")); got != 0 {
		t.Errorf("AccessIn(FR) = %d", got)
	}
}

func TestAccessInStableTiebreak(t *testing.T) {
	var r Registry
	for _, n := range []Number{300, 100, 200} {
		if err := r.Register(mkAS(n, TypeAccess, "FR", 5)); err != nil {
			t.Fatal(err)
		}
	}
	fr := r.AccessIn("FR")
	if fr[0].Number != 100 || fr[1].Number != 200 || fr[2].Number != 300 {
		t.Errorf("equal-user tiebreak should order by ASN: %v %v %v",
			fr[0].Number, fr[1].Number, fr[2].Number)
	}
}

func TestUserCoverage(t *testing.T) {
	var r Registry
	must := func(a *AS) {
		t.Helper()
		if err := r.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	must(mkAS(1, TypeAccess, "DE", 60))
	must(mkAS(2, TypeAccess, "DE", 30))
	must(mkAS(3, TypeAccess, "FR", 10))
	must(mkAS(4, TypeTier1, "US", 0)) // ignored: not access

	cov := r.UserCoverage(map[Number]bool{1: true, 3: true})
	if want := 0.7; cov != want {
		t.Errorf("coverage = %v, want %v", cov, want)
	}
	if got := r.UserCoverage(nil); got != 0 {
		t.Errorf("empty coverage = %v", got)
	}
	var empty Registry
	if got := empty.UserCoverage(map[Number]bool{1: true}); got != 0 {
		t.Errorf("coverage over empty registry = %v", got)
	}
}

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{
		TypeUnknown: "unknown", TypeTier1: "tier1", TypeTier2: "tier2",
		TypeAccess: "access", TypeCloud: "cloud", TypeIXP: "ixp",
		TypeEnterprise: "enterprise",
	}
	for typ, s := range want {
		if typ.String() != s {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), s)
		}
	}
	if Number(1299).String() != "AS1299" {
		t.Errorf("Number string = %q", Number(1299).String())
	}
}

func TestContinentFieldPreserved(t *testing.T) {
	var r Registry
	a := mkAS(5416, TypeAccess, "BH", 1)
	a.Continent = geo.AS
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Lookup(5416)
	if got.Continent != geo.AS {
		t.Errorf("continent = %v", got.Continent)
	}
}
