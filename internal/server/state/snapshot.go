package state

import (
	"sync"

	"jord/internal/mem/vmatable"
	"jord/internal/server/pool"
	"jord/internal/server/router"
)

// snapshot is a read snapshot handle (router.StateSnap). granted marks a
// pcopy R grant the release must pmove back; fast-path (globally promoted)
// and stale-while-taken snapshots carry no grant — their bytes are
// immutable aliases. Handles recycle through a sync.Pool; only the runtime
// (ReleaseHold, at invocation teardown) recycles, so a body that kept the
// handle after Release cannot race a reused one.
type snapshot struct {
	store    *Store
	entry    *entry
	pd       pool.PDID
	bytes    []byte
	version  uint64
	granted  bool
	released bool
}

var _ router.StateSnap = (*snapshot)(nil)

var snapPool = sync.Pool{New: func() any { return new(snapshot) }}

func getSnap() *snapshot { return snapPool.Get().(*snapshot) }

// Bytes returns the snapshot contents (zero-copy alias; read-only).
func (sn *snapshot) Bytes() []byte { return sn.bytes }

// Version returns the value version this snapshot observed.
func (sn *snapshot) Version() uint64 { return sn.version }

// Release returns the read grant early. Idempotent; the handle itself
// stays valid (and is recycled by the runtime at teardown).
func (sn *snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	if !sn.granted {
		return
	}
	s, e := sn.store, sn.entry
	e.mu.Lock()
	if e.grants.sub(sn.pd) {
		// The grant pmoves back rather than being dropped: StatePD reabsorbs
		// the R it copied out, and the reader PD's slot clears — a recycled
		// PD ID must inherit nothing.
		_ = e.v.Pmove(sn.pd, s.pd, vmatable.PermR)
	}
	e.refs--
	free := e.dead && e.refs == 0
	e.mu.Unlock()
	s.outstanding.Add(-1)
	if free {
		// Last handle on a deleted key retires its VMA.
		_ = e.v.Retire(s.pd)
	}
}

// ReleaseHold is the runtime's teardown path: release if the body did not,
// then recycle the handle.
func (sn *snapshot) ReleaseHold() {
	sn.Release()
	*sn = snapshot{}
	snapPool.Put(sn)
}

// tx is an exclusive-ownership handle (router.StateTx).
type tx struct {
	store   *Store
	entry   *entry
	pd      pool.PDID
	bytes   []byte
	version uint64
	open    bool
}

var _ router.StateTx = (*tx)(nil)

var txPool = sync.Pool{New: func() any { return new(tx) }}

func getTx() *tx { return txPool.Get().(*tx) }

// Bytes returns the committed value at take time (zero-copy alias; commit
// a new slice rather than mutating it).
func (t *tx) Bytes() []byte { return t.bytes }

// Version returns the value version at take time.
func (t *tx) Version() uint64 { return t.version }

// Commit publishes val as the next version: checked Write into the owned
// VMA, pmove ownership back to the store, version bump. On ErrCapacity the
// transaction stays open (the body may Discard or commit something
// smaller).
func (t *tx) Commit(val []byte) (uint64, error) {
	if !t.open {
		return 0, ErrTxClosed
	}
	s, e := t.store, t.entry
	e.mu.Lock()
	delta := int64(len(val)) - int64(len(e.bytes))
	if s.cfg.CapBytes > 0 && delta > 0 && s.bytes.Load()+delta > s.cfg.CapBytes {
		e.mu.Unlock()
		s.capacityRef.Add(1)
		return 0, ErrCapacity
	}
	err := e.v.Write(t.pd, val)
	if mvErr := e.v.Pmove(t.pd, s.pd, vmatable.PermRW); err == nil {
		err = mvErr
	}
	t.open = false
	e.taken = false
	e.takenBy = 0
	e.refs--
	if err != nil {
		e.mu.Unlock()
		s.outstanding.Add(-1)
		return 0, err
	}
	e.bytes = val
	e.version++
	e.reads = 0
	ver := e.version
	e.mu.Unlock()
	s.bytes.Add(delta)
	s.outstanding.Add(-1)
	s.commits.Add(1)
	return ver, nil
}

// Discard ends the transaction without publishing: ownership pmoves back,
// the committed value untouched — the Groundhog rollback, free because
// mutation only ever happens at Commit.
func (t *tx) Discard() {
	if !t.open {
		return
	}
	t.open = false
	s, e := t.store, t.entry
	e.mu.Lock()
	_ = e.v.Pmove(t.pd, s.pd, vmatable.PermRW)
	e.taken = false
	e.takenBy = 0
	e.refs--
	e.mu.Unlock()
	s.outstanding.Add(-1)
	s.discards.Add(1)
}

// ReleaseHold is the runtime's teardown path: an open transaction is
// discarded (the body returned, panicked, or was killed mid-ownership),
// then the handle recycles.
func (t *tx) ReleaseHold() {
	t.Discard()
	*t = tx{}
	txPool.Put(t)
}
