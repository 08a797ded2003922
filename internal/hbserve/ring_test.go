package hbserve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// TestRingBalanceAcrossPorts: three local replicas at the default vnode
// count split uniform HB(3,8) keys evenly whatever ports they listen
// on. Unfinalized FNV-1a clusters the ring points "url#j" and the keys
// "m|n|u|v", so some port triples handed one replica a third of its
// fair share and another twice it — and a test whose target replica
// owned almost no keys never saw enough failures to eject it.
func TestRingBalanceAcrossPorts(t *testing.T) {
	const replicas, keys = 3, 6000
	rng := rand.New(rand.NewSource(1))
	d := Dims{M: 3, N: 8}
	order := (1 << d.M) * d.N * (1 << d.N)
	worst := 0.0
	for trial := 0; trial < 200; trial++ {
		names := make([]string, replicas)
		for i := range names {
			names[i] = fmt.Sprintf("http://127.0.0.1:%d", 32768+rng.Intn(28232))
		}
		ring := newHashRing(names, 0)
		share := make([]int, replicas)
		for k := 0; k < keys; k++ {
			share[ring.Lookup(shardKey(d, rng.Intn(order), rng.Intn(order)), nil)]++
		}
		most := 0
		for _, s := range share {
			most = max(most, s)
		}
		ratio := float64(most) / (float64(keys) / replicas)
		if ratio > worst {
			worst = ratio
		}
		if ratio > 1.4 {
			t.Fatalf("ports %v: shares %v, max/mean %.2f > 1.4", names, share, ratio)
		}
	}
	t.Logf("worst max/mean over 200 port triples: %.2f", worst)
}

// LookupN is the closure form of owners and the oracle for it: alive is
// asked point by point, and the ring is searched with sort.Search.
func (r *hashRing) LookupN(key uint64, n int, alive func(int) bool, buf []int) []int {
	owners := buf[:0]
	if len(r.hashes) == 0 || n <= 0 {
		return owners
	}
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= key })
	for k := 0; k < len(r.hashes) && len(owners) < n; k++ {
		p := r.replicas[(i+k)%len(r.hashes)]
		if alive != nil && !alive(p) {
			continue
		}
		if !slices.Contains(owners, p) {
			owners = append(owners, p)
		}
	}
	return owners
}

// shardKeyStrconv is shardKey as it was first written: FNV-1a over the
// formatted string "m|n|u|v". keyHasher must hash the same bytes.
func shardKeyStrconv(d Dims, u, v int) uint64 {
	return fnv1a(strconv.Itoa(d.M) + "|" + strconv.Itoa(d.N) + "|" + strconv.Itoa(u) + "|" + strconv.Itoa(v))
}

// TestKeyHasherMatchesStrconv: the per-batch key, finished from the
// dims prefix's FNV-1a state, equals the hash of the formatted key for
// random dims and endpoints, negative and multi-digit ones included.
func TestKeyHasherMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ints := []func() int{
		func() int { return rng.Intn(10) },
		func() int { return rng.Intn(1 << 20) },
		func() int { return -rng.Intn(1 << 20) },
		func() int { return int(rng.Uint64()) },
		func() int { return []int{0, -1, math.MinInt64, math.MaxInt64, 9, 10, -10}[rng.Intn(7)] },
	}
	pick := func() int { return ints[rng.Intn(len(ints))]() }
	for trial := 0; trial < 200; trial++ {
		d := Dims{M: pick(), N: pick()}
		key := newKeyHasher(d)
		for k := 0; k < 50; k++ {
			u, v := pick(), pick()
			want := shardKeyStrconv(d, u, v)
			if got := key.key(u, v); got != want {
				t.Fatalf("dims %+v pair (%d,%d): key %#x, strconv form %#x", d, u, v, got, want)
			}
			if got := shardKey(d, u, v); got != want {
				t.Fatalf("dims %+v pair (%d,%d): shardKey %#x, strconv form %#x", d, u, v, got, want)
			}
		}
	}
}

// TestOwnersMatchLookupN: the snapshot lookup returns the closure
// form's owner set for every alive subset of two fleets, at every
// owner-set size: the three perfbench replicas on fixed loopback ports
// under random HB(3,8) keys, and TestLookupNOwnerSets's four-replica
// ring under that test's own keys.
func TestOwnersMatchLookupN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	order := (1 << 3) * 8 * (1 << 8)
	fleets := []struct {
		names []string
		key   func(k int) uint64
	}{
		{
			names: []string{"http://127.0.0.1:47311", "http://127.0.0.1:47312", "http://127.0.0.1:47313"},
			key:   func(int) uint64 { return shardKey(Dims{M: 3, N: 8}, rng.Intn(order), rng.Intn(order)) },
		},
		{
			names: []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"},
			key:   func(k int) uint64 { return shardKey(Dims{M: 2, N: 4}, k, k+1) },
		},
	}
	var got, want []int
	for _, f := range fleets {
		ring := newHashRing(f.names, 0)
		for set := 0; set < 1<<len(f.names); set++ {
			alive := make([]bool, len(f.names))
			for i := range alive {
				alive[i] = set>>i&1 == 1
			}
			aliveFunc := func(i int) bool { return alive[i] }
			for k := 0; k < 4096; k++ {
				key := f.key(k)
				if k == 0 {
					key = math.MaxUint64 // past the last point: the walk wraps
				}
				for r := 0; r <= len(f.names)+1; r++ {
					got = ring.owners(key, r, alive, got)
					want = ring.LookupN(key, r, aliveFunc, want)
					if !slices.Equal(got, want) {
						t.Fatalf("fleet %v alive %v key %#x R=%d: owners %v, LookupN %v", f.names, alive, key, r, got, want)
					}
				}
			}
		}
	}
}
