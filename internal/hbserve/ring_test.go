package hbserve

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
)

// TestRingBalanceAcrossPorts: three local replicas at the default vnode
// count split uniform HB(3,8) keys evenly whatever ports they listen
// on. Unfinalized FNV-1a clustered the ring points "url#j" and the
// decimal keys "m|n|u|v" it once hashed, so some port triples handed
// one replica a third of its fair share and another twice it — and a test whose target replica
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

// TestRequestKeyMatchesShardKey: the key the router derives from a GET
// URL is shardKey of the same (dims,u,v), for random dims and
// endpoints, negative, zero and extreme ones included.
func TestRequestKeyMatchesShardKey(t *testing.T) {
	rt, err := NewRouter(ClusterConfig{Replicas: []string{"http://a:1", "http://b:2", "http://c:3"}})
	if err != nil {
		t.Fatal(err)
	}
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
		for k := 0; k < 50; k++ {
			u, v := pick(), pick()
			get := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/route?m=%d&n=%d&u=%d&v=%d", d.M, d.N, u, v), nil)
			if got, want := rt.requestKey(get), shardKey(d, u, v); got != want {
				t.Fatalf("dims %+v pair (%d,%d): GET key %#x, shardKey %#x", d, u, v, got, want)
			}
		}
	}
}

// FuzzRingOwners differentially checks the bucketed first and owners
// against the sort.Search oracle LookupN, over fleets of
// 1-8 replicas with 1-128 vnodes, owner-set sizes 0..n+1 and any alive
// mask. Each input also probes the exact hash of one ring point and the
// start of the key's bucket, where an off-by-one would show.
func FuzzRingOwners(f *testing.F) {
	f.Add(uint8(2), uint8(63), uint8(2), uint8(0xff), uint64(0))
	f.Add(uint8(2), uint8(63), uint8(2), uint8(0xff), uint64(math.MaxUint64))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), uint64(1)<<63)
	f.Add(uint8(7), uint8(127), uint8(9), uint8(0x5a), uint64(0x9e3779b97f4a7c15))
	f.Add(uint8(3), uint8(5), uint8(0), uint8(0), uint64(42))
	for _, c := range []struct{ fleet, vnodes uint8 }{{2, 63}, {0, 0}, {7, 127}} {
		ring := fuzzRing(c.fleet, c.vnodes)
		for _, h := range ring.hashes[:min(8, len(ring.hashes))] {
			f.Add(c.fleet, c.vnodes, uint8(2), uint8(0xff), h)
			f.Add(c.fleet, c.vnodes, uint8(2), uint8(0xff), h>>ring.shift<<ring.shift)
		}
	}
	f.Fuzz(func(t *testing.T, fleet, vnodes, r, mask uint8, key uint64) {
		ring := fuzzRing(fleet, vnodes)
		n := int(fleet)%8 + 1
		R := int(r) % (n + 2)
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = mask>>i&1 == 1
		}
		point := ring.hashes[key%uint64(len(ring.hashes))]
		for _, k := range []uint64{key, point, point + 1, key >> ring.shift << ring.shift} {
			i := ring.first(k)
			if want := sort.Search(len(ring.hashes), func(i int) bool { return ring.hashes[i] >= k }); i != want {
				t.Fatalf("key %#x: first %d, sort.Search %d", k, i, want)
			}
			want := ring.LookupN(k, R, func(i int) bool { return alive[i] }, nil)
			if got := ring.owners(k, R, alive, nil); !slices.Equal(got, want) {
				t.Fatalf("key %#x alive %v R=%d: owners %v, LookupN %v", k, alive, R, got, want)
			}
		}
	})
}

// fuzzRing is FuzzRingOwners's fleet: 1-8 replicas, 1-128 vnodes each.
func fuzzRing(fleet, vnodes uint8) *hashRing {
	names := make([]string, int(fleet)%8+1)
	for i := range names {
		names[i] = fmt.Sprintf("http://10.0.0.%d:%d", i+1, 9000+i)
	}
	return newHashRing(names, int(vnodes)%128+1)
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
