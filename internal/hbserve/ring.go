package hbserve

import (
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
	r := &hashRing{hashes: make([]uint64, len(points)), replicas: make([]int, len(points))}
	for k, p := range points {
		r.hashes[k], r.replicas[k] = p.hash, p.replica
	}
	return r
}

// first returns the index of the first point clockwise from key: the
// lowest hash >= key, or len(hashes) when the walk wraps to point 0.
func (r *hashRing) first(key uint64) int {
	lo, hi := 0, len(r.hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.hashes[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
// buf (pass buf[:0] to reuse an allocation across calls). alive is a
// snapshot the caller takes once for a whole batch.
func (r *hashRing) owners(key uint64, n int, alive []bool, buf []int) []int {
	owners := buf[:0]
	p := r.first(key)
	for k := 0; k < len(r.hashes) && len(owners) < n; k++ {
		if p == len(r.hashes) {
			p = 0
		}
		rep := r.replicas[p]
		p++
		if (alive == nil || alive[rep]) && !slices.Contains(owners, rep) {
			owners = append(owners, rep)
		}
	}
	return owners
}

// keyHasher hashes the (dims,u,v) keys of one dims onto the ring. The
// FNV-1a state over the shared "m|n|" prefix is computed once; each key
// finishes it with the decimal digits of u, a '|', and those of v — the
// bytes of the string "m|n|u|v" the keys have always hashed, so batch
// pairs and single queries for the same (dims,u,v) share an owner.
type keyHasher uint64

func newKeyHasher(d Dims) keyHasher {
	h := fnvDecimal(fnvOffset, d.M)
	h = fnvDecimal((h^'|')*fnvPrime, d.N)
	return keyHasher((h ^ '|') * fnvPrime)
}

// key returns the ring key of (u, v).
func (k keyHasher) key(u, v int) uint64 {
	h := fnvDecimal(uint64(k), u)
	return fmix64(fnvDecimal((h^'|')*fnvPrime, v))
}

// shardKey hashes one (dims,u,v) query identity onto the ring.
func shardKey(d Dims, u, v int) uint64 { return newKeyHasher(d).key(u, v) }

// fnvDecimal continues the FNV-1a state h over the decimal form of x,
// the bytes strconv.Itoa(x) returns.
func fnvDecimal(h uint64, x int) uint64 {
	ux := uint64(x)
	if x < 0 {
		h = (h ^ '-') * fnvPrime
		ux = -ux
	}
	var digits [20]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + ux%10)
		if ux /= 10; ux == 0 {
			break
		}
	}
	for ; i < len(digits); i++ {
		h = (h ^ uint64(digits[i])) * fnvPrime
	}
	return h
}
