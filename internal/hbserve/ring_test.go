package hbserve

import (
	"fmt"
	"math/rand"
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
