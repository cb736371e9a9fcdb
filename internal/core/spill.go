package core

// Spiller is the disk-backed overflow tier behind the BML staging pool
// (implemented by internal/wal.Log). When staging-pool admission times out,
// the server offers the write here instead of degrading straight to the
// synchronous path: an accepted record is durably logged and the write is
// acknowledged immediately, burst-buffer style.
//
// Append must either (a) return nil and later invoke done exactly once with
// the terminal backend write's result, or (b) return a non-nil error and
// never invoke either callback — in which case the server falls back to the
// synchronous degrade path. done may be called from another goroutine; the
// server routes it into the descriptor's deferred-error bookkeeping, so
// spilled writes report failures on a later operation exactly like staged
// ones.
//
// Append may block its caller for a bounded batching window: under group
// commit the record joins a cohort and parks until a leader has made the
// whole cohort durable with one shared fsync. A nil return still means
// exactly what it meant before — this record is durable (to the log's
// configured sync policy) and acknowledged — and the done/released
// callback semantics are unchanged. Callers on a latency-sensitive path
// must treat Append as a potentially-parking call, never as a pure
// enqueue.
//
// released, when non-nil, is invoked at most once, strictly after done,
// when the record's durable copy has left the log (its segment was
// truncated after the backend was flushed). Until it fires the server
// keeps placing the descriptor's later writes in the spill tier (the
// ordering rule on descriptor, descdb.go), so Append must keep one name's
// records in FIFO order, both live and across a replay.
type Spiller interface {
	Append(name string, off int64, data []byte, done func(error), released func()) error
}
