package cluster

import (
	"time"

	"jord/internal/server/gateway"
)

// healthLoop polls every worker's /readyz each HealthInterval. It is the
// only path that RE-ADMITS a worker: passive ejection (transport errors,
// drain-marked 503s) takes a worker out instantly, and it stays out until
// a poll sees it ready again — so a flapping worker costs at most one
// failed request per flap, not one per in-flight request.
func (d *Dispatcher) healthLoop() {
	defer close(d.healthDone)
	// First round immediately: a dispatcher booted against a dead worker
	// should eject it before the first client request, not 250ms later.
	d.pollAll()
	t := time.NewTicker(d.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-d.healthStop:
			return
		case <-t.C:
			d.pollAll()
		}
	}
}

func (d *Dispatcher) pollAll() {
	ws := d.snapshot()
	done := make(chan struct{}, len(ws))
	for _, w := range ws {
		go func(w *worker) {
			d.poll(w)
			done <- struct{}{}
		}(w)
	}
	for range ws {
		<-done
	}
}

// poll probes one worker's /readyz and applies the verdict. The worker
// gateway answers the document on BOTH 200 (ready) and 503 (draining or
// degraded), so a decoded body is authoritative either way; only
// transport-level failures fall back to "unreachable".
func (d *Dispatcher) poll(w *worker) {
	// Captured BEFORE the round-trip: a verdict formed against the worker
	// as it was when the poll began must not overwrite ejections that
	// happened while the poll was in flight.
	epoch := w.ejectEpoch.Load()
	var doc gateway.Readyz
	err := d.fetchJSON(w.base, "/readyz", max(d.cfg.HealthInterval, 100*time.Millisecond), &doc)
	d.applyVerdict(w, doc, err, epoch)
}

func (d *Dispatcher) applyVerdict(w *worker, doc gateway.Readyz, err error, epoch uint64) {
	now := time.Now()
	if err != nil {
		w.ejected.Store(true)
		w.mu.Lock()
		w.lastErr = err.Error()
		w.lastPoll = now
		w.mu.Unlock()
		return
	}
	// Auto-size the JBSQ bound from the worker's declared capacity: the
	// same 4 x executors x jbsq proportion as the worker's own default
	// admission cap. Fixed Config.Bound wins when set.
	if d.cfg.Bound == 0 && doc.Executors > 0 && doc.JBSQBound > 0 {
		w.bound.Store(int64(4 * doc.Executors * doc.JBSQBound))
	}
	if doc.Ready && w.ejectEpoch.Load() != epoch {
		// Stale ready verdict: the worker was passively ejected (dropped a
		// connection, sent a drain marker) AFTER this poll started, so the
		// "ready" answer predates the failure. Discard the re-admission;
		// the next round decides with fresh evidence.
		w.mu.Lock()
		w.lastErr = "stale ready verdict discarded"
		w.lastPoll = now
		w.mu.Unlock()
		return
	}
	w.ejected.Store(!doc.Ready)
	w.mu.Lock()
	w.lastErr = ""
	if !doc.Ready {
		switch {
		case doc.Draining:
			w.lastErr = "worker draining"
		case doc.Degraded:
			w.lastErr = "worker degraded"
		default:
			w.lastErr = "worker not ready"
		}
	}
	w.ready = doc
	w.lastPoll = now
	w.mu.Unlock()
}
