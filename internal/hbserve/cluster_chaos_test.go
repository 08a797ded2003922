package hbserve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClusterChaosKillRestartMidLoad is the chaos acceptance gate in
// miniature, driven by closed loops so every event is tied to a count
// of answered requests, not to the wall clock:
//
//   - GETs: replica 1 is killed after k answered GETs and restarted
//     after 2k; the loop runs on until the router has readmitted it and
//     forwards to it again. Retries and ejection must hold non-2xx to
//     at most 1%.
//   - /batch: replica 2 is killed halfway through. Every batch must
//     answer 200 with all of its pairs, byte-equal to one live
//     replica's whole-batch answer: no pair lost to the kill.
func TestClusterChaosKillRestartMidLoad(t *testing.T) {
	fleet := newTestFleet(t, 3)
	rt, ts := newTestRouter(t, ClusterConfig{
		Replicas:      fleet.URLs(),
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		EjectAfter:    2,
		ReadmitAfter:  2,
	})
	rt.Start()
	t.Cleanup(rt.Stop)
	client := ts.Client()
	const (
		m, n    = 2, 3
		order   = 96 // |HB(2,3)|
		workers = 4
		k       = 100
	)
	deadline := time.Now().Add(30 * time.Second)

	var (
		wg                    sync.WaitGroup
		answered, non2xx      atomic.Int64
		restarted, readmitted atomic.Bool
		forwardedAtRestart    atomic.Uint64
		killErr, restartErr   error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !readmitted.Load() && time.Now().Before(deadline); i += workers {
				u, v := (i*5)%order, (i*11+7)%order
				resp, err := client.Get(fmt.Sprintf("%s/route?m=%d&n=%d&u=%d&v=%d", ts.URL, m, n, u, v))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if err != nil || resp.StatusCode/100 != 2 {
					non2xx.Add(1)
				}
				switch answered.Add(1) {
				case k:
					killErr = fleet.Kill(1)
				case 2 * k:
					// Replica 1 is dead until Restart returns, so its
					// forwarded count cannot move before then.
					forwardedAtRestart.Store(rt.Status().Replicas[1].Forwarded)
					restartErr = fleet.Restart(1)
					restarted.Store(true)
				}
				if restarted.Load() {
					r := rt.Status().Replicas[1]
					if r.Healthy && r.Readmissions > 0 && r.Forwarded > forwardedAtRestart.Load() {
						readmitted.Store(true)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if killErr != nil || restartErr != nil {
		t.Fatalf("kill: %v, restart: %v", killErr, restartErr)
	}
	st := rt.Status()
	if !readmitted.Load() {
		t.Fatalf("after %d GETs replica 1 was not readmitted and forwarding again: %+v", answered.Load(), st.Replicas[1])
	}
	if bad, total := non2xx.Load(), answered.Load(); bad*100 > total {
		t.Errorf("%d of %d GETs answered non-2xx through a kill and restart, budget 1%%", bad, total)
	}
	t.Logf("%d GETs, %d non-2xx; replica 1 %+v", answered.Load(), non2xx.Load(), st.Replicas[1])
	if st.Replicas[1].Ejections == 0 || st.Replicas[1].Readmissions == 0 {
		t.Errorf("replica 1: %d ejections, %d readmissions, want both counted", st.Replicas[1].Ejections, st.Replicas[1].Readmissions)
	}

	// /batch phase: a rotation of 256-pair binary bodies, each answered
	// whole by replica 0 (never killed) for reference. post reports
	// errors instead of failing, so the phase's workers can call it.
	post := func(base string, body []byte) (int, []byte, error) {
		resp, err := client.Post(base+"/batch", ctBatchBin, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}
	const bodies, batches = 4, 32
	reqs := make([][]byte, bodies)
	want := make([][]byte, bodies)
	for b := range reqs {
		src, dst := make([]int, 256), make([]int, 256)
		for i := range src {
			src[i], dst[i] = (b*37+i*5)%order, (b*53+i*11+7)%order
		}
		var err error
		if reqs[b], err = EncodeBatchBinRequest("route", m, n, nil, src, dst); err != nil {
			t.Fatal(err)
		}
		status, body, err := post(fleet.URLs()[0], reqs[b])
		if err != nil || status != http.StatusOK {
			t.Fatalf("reference batch %d: status %d, err %v", b, status, err)
		}
		want[b] = body
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= batches {
					return
				}
				if i == batches/2 {
					if err := fleet.Kill(2); err != nil {
						t.Errorf("kill replica 2: %v", err)
					}
				}
				status, body, err := post(ts.URL, reqs[i%bodies])
				switch {
				case err != nil || status != http.StatusOK:
					t.Errorf("batch %d: status %d, err %v", i, status, err)
				case !bytes.Equal(body, want[i%bodies]):
					t.Errorf("batch %d: answer differs from replica 0's whole-batch answer", i)
				}
			}
		}()
	}
	wg.Wait()

	for i, r := range rt.Status().Replicas {
		if r.Forwarded == 0 {
			t.Errorf("replica %d (%s) forwarded nothing", i, r.URL)
		}
	}
}
