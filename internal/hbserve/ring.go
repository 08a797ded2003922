package hbserve

import (
	"math/bits"
	"slices"
	"sort"
	"strconv"
)

// hashRing consistent-hash-shards the (dims,u,v) keyspace across
// replica indices. Each replica owns vnodes points on a 64-bit ring; a
// key belongs to the first point clockwise from its hash. The point set
// is immutable after construction — membership changes (ejections,
// re-admissions) are expressed at lookup time by the alive predicate,
// so a dead replica's keys spill to the next live point clockwise while
// every key owned by a surviving replica keeps its owner. That
// stability under churn is the property the cluster tier's affinity
// test pins.
type hashRing struct {
	hashes   []uint64 // point hashes, ascending
	replicas []int    // replicas[k] owns the point hashes[k]
	index    []int32  // index[b]: the first point whose hash is >= b<<shift
	shift    uint     // 64 - log2(len(index)); len(index) >= 4 points
}

// defaultVNodes balances the keyspace to within a few percent across a
// handful of replicas without making lookups or construction heavy.
const defaultVNodes = 64

// newHashRing builds the ring over n replicas identified by the given
// stable names (the cluster tier passes base URLs); vnodes <= 0 selects
// defaultVNodes.
func newHashRing(names []string, vnodes int) *hashRing {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	type point struct {
		hash    uint64
		replica int
	}
	points := make([]point, 0, len(names)*vnodes)
	for i, name := range names {
		for j := 0; j < vnodes; j++ {
			points = append(points, point{hash: fnv1a(name + "#" + strconv.Itoa(j)), replica: i})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		return points[a].replica < points[b].replica
	})
	nbits := bits.Len(uint(max(4*len(points), 1) - 1))
	r := &hashRing{hashes: make([]uint64, len(points)), replicas: make([]int, len(points)),
		index: make([]int32, 1<<nbits), shift: uint(64 - nbits)}
	for k, p := range points {
		r.hashes[k], r.replicas[k] = p.hash, p.replica
	}
	k := 0
	for b := range r.index {
		for k < len(r.hashes) && r.hashes[k] < uint64(b)<<r.shift {
			k++
		}
		r.index[b] = int32(k)
	}
	return r
}

// first returns the index of the first point clockwise from key: the
// lowest hash >= key, or len(hashes) when the walk wraps to point 0.
// Every point before index[key>>shift] hashes below the bucket's start,
// so the scan from there finds the same point a binary search would.
func (r *hashRing) first(key uint64) int {
	i := int(r.index[key>>r.shift])
	for i < len(r.hashes) && r.hashes[i] < key {
		i++
	}
	return i
}

// Lookup returns the replica owning key among those alive accepts
// (nil = all), or -1 when none is. Walking the ring point by point —
// rather than filtering the point set up front — is what preserves
// surviving replicas' assignments under membership change.
func (r *hashRing) Lookup(key uint64, alive func(int) bool) int {
	i := r.first(key)
	for k := 0; k < len(r.hashes); k++ {
		p := r.replicas[(i+k)%len(r.hashes)]
		if alive == nil || alive(p) {
			return p
		}
	}
	return -1
}

// owners returns the key's owner set: the first n distinct replicas i
// with alive[i] (nil = all) on the clockwise walk from the key's ring
// position, primary first. Because the walk order is fixed by the
// immutable point set, ejecting one member of an owner set promotes the
// next member in place — a key replicated at factor R keeps an alive
// owner inside its original owner set as long as fewer than R members
// are down, with no re-walk past the set. The result is appended to
// buf[:0], reusing its storage. alive is a snapshot the caller takes
// once per request.
func (r *hashRing) owners(key uint64, n int, alive []bool, buf []int) []int {
	dst := buf[:0]
	p := r.first(key)
	for k := 0; k < len(r.hashes) && len(dst) < n; k++ {
		if p == len(r.hashes) {
			p = 0
		}
		rep := r.replicas[p]
		p++
		if (alive == nil || alive[rep]) && !slices.Contains(dst, rep) {
			dst = append(dst, rep)
		}
	}
	return dst
}

// shardKey hashes one (dims,u,v) query identity onto the ring with
// murmur3 fmix64 rounds over the integers: m, then n, u and v. A
// single query is placed by its own key, a /batch body by its dims' key
// shardKey(dims, 0, 0).
func shardKey(d Dims, u, v int) uint64 {
	return fmix64(fmix64(fmix64(fmix64(uint64(d.M))^uint64(d.N))^uint64(u)) ^ uint64(v))
}
