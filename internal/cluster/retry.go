package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
)

// respClass partitions failed attempts by what the worker may have seen —
// the whole retry policy hangs off this split. forward assigns it from
// how far the exchange got (see classify).
type respClass int

const (
	// classSafe: the request never reached the worker complete (dial
	// failure, reset while writing). Re-placing it cannot double-execute:
	// the body is Content-Length-framed and the worker gateway reads it
	// with ReadFull, so a connection that broke mid-write leaves a short
	// read the gateway turns into a 400 WITHOUT invoking the function.
	classSafe respClass = iota
	// classUnsafe: the failure happened after the request was delivered
	// (reset while reading the response, truncated body). The worker may
	// have executed; only an idempotency-keyed replay is safe.
	classUnsafe
	// classCtx: our own context or deadline fired (client gone, request
	// timeout, hedge-loser cancellation). Not a worker failure at all.
	classCtx
)

// Idempotency keys: a random per-process prefix plus a counter. The
// prefix keeps two dispatchers (or a restart) from colliding in a
// worker's replay cache; the counter keeps generation allocation-light.
var (
	keyPrefix = func() string {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "jordkey0"
		}
		return hex.EncodeToString(b[:])
	}()
	keySeq atomic.Uint64
)

func newIdemKey() string {
	var buf [32]byte // 16 prefix bytes, '-', at most 13 base-36 digits
	b := append(buf[:0], keyPrefix...)
	b = append(b, '-')
	return string(strconv.AppendUint(b, keySeq.Add(1), 36))
}
