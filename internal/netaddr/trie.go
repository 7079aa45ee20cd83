package netaddr

// Trie is a binary radix trie mapping prefixes to values, answering
// longest-prefix-match lookups. It is the in-process equivalent of the
// PyASN IP→ASN database used in the paper's traceroute pipeline.
//
// The zero value is an empty trie ready for use. Trie is safe for
// concurrent readers once all inserts have completed.
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	value V
	set   bool
}

// Insert associates value with the prefix, replacing any existing value
// at exactly that prefix.
func (t *Trie[V]) Insert(p Prefix, value V) {
	p = p.Normalize()
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	for i := 0; i < p.Len; i++ {
		bit := (p.Addr >> (31 - i)) & 1
		if n.child[bit] == nil {
			n.child[bit] = &trieNode[V]{}
		}
		n = n.child[bit]
	}
	if !n.set {
		t.size++
	}
	n.value = value
	n.set = true
}

// Lookup returns the value of the longest prefix containing ip and the
// length of that prefix. ok is false when no inserted prefix covers ip.
func (t *Trie[V]) Lookup(ip IP) (value V, prefixLen int, ok bool) {
	n := t.root
	if n == nil {
		return value, 0, false
	}
	if n.set {
		value, prefixLen, ok = n.value, 0, true
	}
	for i := 0; i < 32 && n != nil; i++ {
		bit := (ip >> (31 - i)) & 1
		n = n.child[bit]
		if n != nil && n.set {
			value, prefixLen, ok = n.value, i+1, true
		}
	}
	return value, prefixLen, ok
}

// Len returns the number of distinct prefixes stored.
func (t *Trie[V]) Len() int { return t.size }
