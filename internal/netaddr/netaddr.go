// Package netaddr provides the IPv4 address machinery the study's
// traceroute-processing pipeline is built on: address and prefix values,
// a deterministic prefix allocator used when synthesizing the Internet,
// and a longest-prefix-match radix trie that plays the role PyASN plays
// in the paper (§3.3, "Processing Traceroutes").
package netaddr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address held as a big-endian 32-bit integer. The zero
// value is 0.0.0.0.
type IP uint32

// MustParseIP parses a dotted-quad string and panics on error. Intended
// for constants and tests.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netaddr: bad IPv4 %q", s)
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("netaddr: bad IPv4 octet %q in %q", p, s)
		}
		v = v<<8 | uint32(n)
	}
	return IP(v), nil
}

// String formats the address as a dotted quad.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IsPrivate reports whether the address falls in the RFC 1918 private
// ranges or the RFC 6598 CGN range. Home-router first hops in the study
// are identified through this predicate (§5).
func (ip IP) IsPrivate() bool {
	return privateTen.Contains(ip) ||
		private172.Contains(ip) ||
		private192.Contains(ip) ||
		cgn100.Contains(ip)
}

// IsCGN reports whether the address falls in the RFC 6598 carrier-grade
// NAT shared range 100.64.0.0/10.
func (ip IP) IsCGN() bool { return cgn100.Contains(ip) }

var (
	privateTen = MustParsePrefix("10.0.0.0/8")
	private172 = MustParsePrefix("172.16.0.0/12")
	private192 = MustParsePrefix("192.168.0.0/16")
	cgn100     = MustParsePrefix("100.64.0.0/10")
)

// Prefix is an IPv4 CIDR block. Bits beyond the prefix length are zero
// in a normalized Prefix; use Normalize or the parsers to ensure that.
type Prefix struct {
	Addr IP
	Len  int // 0..32
}

// MustParsePrefix parses CIDR notation and panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses "a.b.c.d/len" CIDR notation. The returned prefix is
// normalized (host bits cleared).
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netaddr: missing / in prefix %q", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("netaddr: bad prefix length in %q", s)
	}
	return Prefix{Addr: ip, Len: n}.Normalize(), nil
}

// Normalize returns the prefix with host bits cleared.
func (p Prefix) Normalize() Prefix {
	return Prefix{Addr: p.Addr & p.mask(), Len: p.Len}
}

func (p Prefix) mask() IP {
	if p.Len == 0 {
		return 0
	}
	return IP(^uint32(0) << (32 - p.Len))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	return ip&p.mask() == p.Addr&p.mask()
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Addr) || q.Contains(p.Addr)
}

// NumAddresses returns the number of addresses covered by the prefix.
func (p Prefix) NumAddresses() uint64 { return 1 << (32 - p.Len) }

// Nth returns the i-th address in the prefix. It panics if i is out of
// range.
func (p Prefix) Nth(i uint64) IP {
	if i >= p.NumAddresses() {
		panic(fmt.Sprintf("netaddr: address index %d out of range for %v", i, p))
	}
	return p.Addr&p.mask() + IP(i)
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Len) }

// ErrExhausted is returned by Allocator when the pool has no room left.
var ErrExhausted = errors.New("netaddr: allocation pool exhausted")

// Allocator hands out non-overlapping sub-prefixes of a pool in
// deterministic order. It is used when synthesizing the Internet to give
// every AS a distinct address block, so that IP→ASN resolution is exact.
// Allocator is not safe for concurrent use.
type Allocator struct {
	pool Prefix
	next uint64 // next free address offset within pool
}

// NewAllocator returns an allocator over the given pool.
func NewAllocator(pool Prefix) *Allocator {
	return &Allocator{pool: pool.Normalize()}
}

// Allocate returns the next free prefix of the requested length,
// aligned to its natural boundary.
func (a *Allocator) Allocate(length int) (Prefix, error) {
	if length < a.pool.Len || length > 32 {
		return Prefix{}, fmt.Errorf("netaddr: cannot allocate /%d from %v", length, a.pool)
	}
	size := uint64(1) << (32 - length)
	// Align the cursor up to the block size.
	start := (a.next + size - 1) / size * size
	if start+size > a.pool.NumAddresses() {
		return Prefix{}, ErrExhausted
	}
	a.next = start + size
	return Prefix{Addr: a.pool.Addr + IP(start), Len: length}, nil
}
