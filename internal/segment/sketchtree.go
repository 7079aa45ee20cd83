package segment

import (
	"sync"

	"repro/internal/sketch"
	"repro/internal/store"
)

// A mounted reader's bytes never change, so a sketch block is decoded,
// checked and merged once per mount, not once per query. Each
// dimension × platform owns a tree over the partition axis: leaf p is
// partition p's digests, one per group, merged across shards; an
// internal node is its two children merged. A partition-aligned window
// selects a run of partitions, the run is covered by at most
// 2·⌈log₂ P⌉ nodes, and only those are merged per query — the whole
// campaign is the root, read as it stands.
//
// Canonical merge order (DESIGN.md §15): shard ascending inside a leaf,
// children left to right, cover nodes left to right. Every digest is
// built by that fixed expression tree over the file's bytes, whatever
// the order queries arrive in, so two mounts of one directory answer
// with the same bits.
//
// A node is built on first use, at most once, and is immutable from
// then on; the cache dies with the Reader. It holds at most
// (⌈log₂ P⌉+1) × the decoded leaves — bounded by the file, not by
// traffic.

// treeKey addresses one sketch tree.
type treeKey struct {
	dim      store.Dim
	platform string
}

// sketchSet is one node's content or one query's answer: a digest per
// group name. A view handed out by the cache is read-only.
type sketchSet map[string]*sketch.Sketch

// sketchTree holds the nodes over partitions [0, P) in pre-order: a
// node over [lo, hi) at index i splits at mid = lo + (hi-lo+1)/2, with
// its left child at i+1 and its right child at i + 2·(mid-lo), past the
// left subtree's 2·(mid-lo)-1 nodes. 2P-1 nodes in all.
type sketchTree struct {
	key   treeKey
	once  sync.Once
	nodes []sketchNode
}

type sketchNode struct {
	once sync.Once
	view sketchSet
}

// indexTrees registers a tree for every dimension × platform a shard
// holds groups of. Nothing is allocated or decoded until a query asks:
// mounting stays as cheap as parsing the footers.
func (r *Reader) indexTrees() {
	r.trees = map[treeKey]*sketchTree{}
	for _, ss := range r.shards {
		var prev treeKey
		for _, g := range ss.groups { // sorted: a tree's groups are adjacent
			if tk := (treeKey{g.key.dim, g.key.platform}); tk != prev {
				if r.trees[tk] == nil {
					r.trees[tk] = &sketchTree{key: tk}
				}
				prev = tk
			}
		}
	}
}

// alignedRun decides whether sketches may answer w, from the partition
// zones alone, and returns the partition run [from, to) they cover.
// ok is false — the caller answers exactly — when w cuts a partition of
// any shard, when a partition is inside w for some shards and outside
// it for others (a leaf is all shards or none), or when a partition
// outside w separates two inside it. Partitions without rows in any
// shard may sit in the run: their leaves are empty.
func (r *Reader) alignedRun(w store.Window) (from, to int, ok bool) {
	closed := false // a partition outside w followed the run
	for p := 0; p < r.meta.partitions; p++ {
		var in, out bool
		for _, ss := range r.shards {
			pz := ss.parts[p]
			switch {
			case pz.rows == 0:
			case !w.Overlaps(pz.minCycle, pz.maxCycle):
				out = true
			case !w.Contains(pz.minCycle) || !w.Contains(pz.maxCycle):
				return 0, 0, false
			default:
				in = true
			}
		}
		switch {
		case in && (out || closed):
			return 0, 0, false
		case in:
			if to == 0 {
				from = p
			}
			to = p + 1
		case out:
			closed = to > 0
		}
	}
	return from, to, true
}

// cover appends the views of the maximal nodes that tile [from, to),
// left to right. The node at idx spans [lo, hi).
func (r *Reader) cover(t *sketchTree, idx, lo, hi, from, to int, out []sketchSet) []sketchSet {
	if from <= lo && hi <= to {
		return append(out, r.node(t, idx, lo, hi))
	}
	mid := lo + (hi-lo+1)/2
	if from < mid {
		out = r.cover(t, idx+1, lo, mid, from, to, out)
	}
	if to > mid {
		out = r.cover(t, idx+2*(mid-lo), mid, hi, from, to, out)
	}
	return out
}

// node returns the view of the node at idx spanning [lo, hi), building
// it — and whichever descendants are not built yet — on first use.
func (r *Reader) node(t *sketchTree, idx, lo, hi int) sketchSet {
	t.once.Do(func() { t.nodes = make([]sketchNode, 2*r.meta.partitions-1) })
	n := &t.nodes[idx]
	n.once.Do(func() {
		var left, right sketchSet
		if hi-lo == 1 {
			n.view = r.leaf(t.key, lo)
		} else {
			mid := lo + (hi-lo+1)/2
			left = r.node(t, idx+1, lo, mid)
			right = r.node(t, idx+2*(mid-lo), mid, hi)
			n.view = r.mergeViews(left, right)
		}
		// A group only one child holds is that child's digest, shared,
		// not held twice.
		var held int64
		for name, sk := range n.view {
			if sk != left[name] && sk != right[name] {
				held += int64(sk.HeapBytes())
			}
		}
		r.cacheNodes.Add(1)
		r.cacheBytes.Add(held)
		r.mNodes.Add(1)
		r.mCacheBytes.Add(held)
	})
	return n.view
}

// leaf decodes partition part's sketch blocks of one tree, every check
// of readSketch applied to every block, and merges each group's across
// shards in shard-ascending order. A block that fails is skipped and
// counted, as on the exact path.
func (r *Reader) leaf(k treeKey, part int) sketchSet {
	view := sketchSet{}
	for _, ss := range r.shards {
		for _, g := range ss.groups {
			if g.key.dim != k.dim || g.key.platform != k.platform {
				continue
			}
			for _, e := range g.sketches {
				if e.part != part {
					continue
				}
				sk, err := ss.readSketch(e)
				if err != nil {
					r.mBlockErrs.Inc()
					continue
				}
				r.mRead.Inc()
				if dst := view[g.key.name]; dst != nil {
					dst.Merge(sk) // dst is this leaf's own, not yet published
					r.mSketches.Inc()
				} else {
					view[g.key.name] = sk
				}
			}
		}
	}
	return view
}

// mergeViews merges views group by group, left to right, into a new
// view without writing to any digest of theirs: a group one view holds
// is shared as it stands, a group several hold is merged into a digest
// of its own. Groups do not interact, so the order the names are
// visited in — map order — leaves no trace in the result.
func (r *Reader) mergeViews(views ...sketchSet) sketchSet {
	out := make(sketchSet, len(views[0]))
	for _, v := range views {
		for name := range v {
			if _, done := out[name]; done {
				continue
			}
			var acc *sketch.Sketch
			owned := false
			for _, u := range views {
				sk := u[name]
				switch {
				case sk == nil:
					continue
				case acc == nil:
					acc = sk
					continue
				case owned:
					acc.Merge(sk)
				default:
					acc, owned = sketch.Merged(acc, sk), true
				}
				r.mSketches.Inc()
			}
			out[name] = acc
		}
	}
	return out
}
