package netaddr

import (
	"testing"
	"testing/quick"
)

func TestParseIPRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "10.1.2.3", "192.168.0.1", "100.64.0.1"} {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", s, err)
		}
		if ip.String() != s {
			t.Errorf("round trip %q -> %q", s, ip.String())
		}
	}
}

func TestParseIPErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d", "01.2.3.4", "1..2.3"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) should fail", s)
		}
	}
}

func TestIPRoundTripQuick(t *testing.T) {
	f := func(v uint32) bool {
		ip := IP(v)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsPrivate(t *testing.T) {
	cases := []struct {
		ip      string
		private bool
		cgn     bool
	}{
		{"10.0.0.1", true, false},
		{"10.255.255.255", true, false},
		{"172.16.0.1", true, false},
		{"172.31.255.1", true, false},
		{"172.32.0.1", false, false},
		{"192.168.1.1", true, false},
		{"192.169.0.1", false, false},
		{"100.64.0.1", true, true},
		{"100.127.255.255", true, true},
		{"100.128.0.0", false, false},
		{"8.8.8.8", false, false},
	}
	for _, c := range cases {
		ip := MustParseIP(c.ip)
		if got := ip.IsPrivate(); got != c.private {
			t.Errorf("IsPrivate(%s) = %v, want %v", c.ip, got, c.private)
		}
		if got := ip.IsCGN(); got != c.cgn {
			t.Errorf("IsCGN(%s) = %v, want %v", c.ip, got, c.cgn)
		}
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("10.1.2.3/8")
	if p.Addr != MustParseIP("10.0.0.0") || p.Len != 8 {
		t.Errorf("normalize failed: %v", p)
	}
	if p.String() != "10.0.0.0/8" {
		t.Errorf("String = %q", p.String())
	}
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "x/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", s)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if !p.Contains(MustParseIP("192.0.2.255")) {
		t.Error("should contain last address")
	}
	if p.Contains(MustParseIP("192.0.3.0")) {
		t.Error("should not contain next block")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseIP("255.255.255.255")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixNth(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/30")
	if p.NumAddresses() != 4 {
		t.Fatalf("NumAddresses = %d", p.NumAddresses())
	}
	if got := p.Nth(3); got != MustParseIP("10.0.0.3") {
		t.Errorf("Nth(3) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range should panic")
		}
	}()
	p.Nth(4)
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.5.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes should overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes should not overlap")
	}
}

func TestAllocator(t *testing.T) {
	a := NewAllocator(MustParsePrefix("10.0.0.0/8"))
	p1, err := a.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Overlaps(p2) {
		t.Errorf("allocations overlap: %v %v", p1, p2)
	}
	if p1.String() != "10.0.0.0/16" || p2.String() != "10.1.0.0/16" {
		t.Errorf("unexpected allocations: %v %v", p1, p2)
	}
	// Allocation alignment: a /24 after the /16s starts at the next /24.
	p3, err := a.Allocate(24)
	if err != nil {
		t.Fatal(err)
	}
	if p3.String() != "10.2.0.0/24" {
		t.Errorf("p3 = %v", p3)
	}
	// A /16 must skip ahead to alignment, not overlap the /24.
	p4, err := a.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Overlaps(p3) {
		t.Errorf("p4 %v overlaps p3 %v", p4, p3)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(MustParsePrefix("192.0.2.0/24"))
	if _, err := a.Allocate(25); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(25); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(25); err != ErrExhausted {
		t.Errorf("want ErrExhausted, got %v", err)
	}
	if _, err := a.Allocate(4); err == nil {
		t.Error("allocating shorter than pool should fail")
	}
}

func TestAllocatorNonOverlapProperty(t *testing.T) {
	a := NewAllocator(MustParsePrefix("10.0.0.0/8"))
	lengths := []int{16, 24, 12, 20, 24, 16, 28, 10}
	var got []Prefix
	for _, l := range lengths {
		p, err := a.Allocate(l)
		if err == ErrExhausted {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if got[i].Overlaps(got[j]) {
				t.Errorf("allocations %v and %v overlap", got[i], got[j])
			}
		}
	}
}

func TestTrieLongestMatch(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), "big")
	tr.Insert(MustParsePrefix("10.1.0.0/16"), "mid")
	tr.Insert(MustParsePrefix("10.1.2.0/24"), "small")

	cases := []struct {
		ip   string
		want string
		plen int
	}{
		{"10.1.2.3", "small", 24},
		{"10.1.3.1", "mid", 16},
		{"10.2.0.1", "big", 8},
	}
	for _, c := range cases {
		v, plen, ok := tr.Lookup(MustParseIP(c.ip))
		if !ok || v != c.want || plen != c.plen {
			t.Errorf("Lookup(%s) = (%q,%d,%v), want (%q,%d,true)", c.ip, v, plen, ok, c.want, c.plen)
		}
	}
	if _, _, ok := tr.Lookup(MustParseIP("11.0.0.1")); ok {
		t.Error("lookup outside all prefixes should miss")
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("0.0.0.0/0"), 99)
	v, plen, ok := tr.Lookup(MustParseIP("203.0.113.9"))
	if !ok || v != 99 || plen != 0 {
		t.Errorf("default route lookup = (%d,%d,%v)", v, plen, ok)
	}
}

func TestTrieReplace(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Errorf("Len after replace = %d", tr.Len())
	}
	v, _, _ := tr.Lookup(MustParseIP("10.0.0.1"))
	if v != 2 {
		t.Errorf("value after replace = %d", v)
	}
}

func TestTrieEmpty(t *testing.T) {
	var tr Trie[int]
	if _, _, ok := tr.Lookup(MustParseIP("1.2.3.4")); ok {
		t.Error("empty trie lookup should miss")
	}
	if tr.Len() != 0 {
		t.Errorf("empty trie Len = %d", tr.Len())
	}
}

// TestTrieMatchesLinearScan is the property test from DESIGN.md: for
// random address/prefix sets the trie must agree with a brute-force
// longest-prefix scan.
func TestTrieMatchesLinearScan(t *testing.T) {
	type entry struct {
		p Prefix
		v int
	}
	build := func(seeds []uint32) ([]entry, *Trie[int]) {
		var entries []entry
		tr := &Trie[int]{}
		for i, s := range seeds {
			p := Prefix{Addr: IP(s), Len: int(s % 33)}.Normalize()
			entries = append(entries, entry{p, i})
			tr.Insert(p, i)
		}
		return entries, tr
	}
	linear := func(entries []entry, ip IP) (int, int, bool) {
		best, bestLen, ok := 0, -1, false
		for _, e := range entries {
			if e.p.Contains(ip) && e.p.Len > bestLen {
				best, bestLen, ok = e.v, e.p.Len, true
			}
		}
		return best, bestLen, ok
	}
	f := func(seeds []uint32, probes []uint32) bool {
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		entries, tr := build(seeds)
		// Deduplicate: later Insert replaces earlier same-prefix entries,
		// so the linear model must keep only the last value per prefix.
		lastByPrefix := map[Prefix]int{}
		for _, e := range entries {
			lastByPrefix[e.p] = e.v
		}
		var dedup []entry
		for p, v := range lastByPrefix {
			dedup = append(dedup, entry{p, v})
		}
		for _, pr := range probes {
			ip := IP(pr)
			wv, wl, wok := linear(dedup, ip)
			gv, gl, gok := tr.Lookup(ip)
			if wok != gok || (wok && (wv != gv || wl != gl)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
