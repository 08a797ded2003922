package noc

import (
	"sync/atomic"

	"repro/internal/faultroute"
)

// Rerouter supplies fault-avoiding routes while a Schedule mutates the
// fault set mid-run. The engine mirrors every effective fail/recover
// into it, so implementations (a faultroute.Router behind
// FaultRerouter) always see the live fault picture. Reroute must return
// a cur..dst walk over real edges avoiding every currently-faulty node,
// or an error when no such walk exists. Injection calls Reroute from
// the parallel workers, so it must be safe for concurrent use.
type Rerouter interface {
	Fail(v int)
	Recover(v int)
	Reroute(cur, dst int) ([]int, error)
}

// FaultRerouter adapts a faultroute.Router to the Rerouter interface.
// It also keeps score against the paper's guarantee: every reroute
// failure that happens while the live fault count is within the m+3
// bound is a Remark 10 counterexample, so chaos harnesses gate on
// Violations == 0.
type FaultRerouter struct {
	R *faultroute.Router
	// Reroutes counts successful Reroute calls: worms re-pathed in
	// flight plus injections whose static route crossed a live fault.
	Reroutes atomic.Int64
	// Violations counts reroute failures observed while the router's
	// fault count was within the m+3 guarantee.
	Violations atomic.Int64
}

// Fail marks v faulty in the underlying router.
func (f *FaultRerouter) Fail(v int) { f.R.Fail(v) }

// Recover clears v in the underlying router.
func (f *FaultRerouter) Recover(v int) { f.R.Recover(v) }

// Reroute returns a fault-avoiding cur..dst path.
func (f *FaultRerouter) Reroute(cur, dst int) ([]int, error) {
	p, err := f.R.Route(cur, dst)
	switch {
	case err == nil:
		f.Reroutes.Add(1)
	case f.R.WithinGuarantee():
		f.Violations.Add(1)
	}
	return p, err
}
