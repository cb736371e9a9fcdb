package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// stream is one closed-loop issuer: a goroutine that sends its next
// operation only after the previous one returned. It times every File
// call, records a client span when tracing, and keeps its own tallies so
// streams never share a lock on the hot path.
type stream struct {
	conn int // global connection index (trace numbering)
	tr   *tracer

	// timed is false during set-up and the final verification; those
	// operations still count as attempted but add no latency samples.
	timed bool

	writeLat, readLat     []int64
	writeBytes, readBytes int64
	readBusy              time.Duration
	ops, attempted        int64
	failed                int64
	firstWrite            time.Time
	acks                  []ack // timed writes in ack order; see writeRates
	lastSync              time.Time
	err                   error // first failure
	mismatch              string
}

func (s *stream) fail(what string, err error) error {
	s.failed++
	if s.err == nil {
		s.err = fmt.Errorf("conn %d: %s: %w", s.conn, what, err)
	}
	return s.err
}

func (s *stream) span(op spanOp, name string, off int64, n int, t0, t1 time.Time) {
	if s.tr != nil {
		s.tr.client(op, s.conn, name, off, n, t0, t1)
	}
}

func (s *stream) open(ctx context.Context, c *core.Client, name string) (*core.File, error) {
	s.attempted++
	t0 := time.Now()
	f, err := c.Open(ctx, name)
	s.span(opOpen, name, -1, 0, t0, time.Now())
	if err != nil {
		return nil, s.fail("open "+name, err)
	}
	s.ops++
	return f, nil
}

// write issues one write: at the server-side cursor when cursor is set
// (off is then only the expected offset, used as the trace key), else
// positional at off.
func (s *stream) write(ctx context.Context, f *core.File, b []byte, off int64, cursor bool) error {
	s.attempted++
	t0 := time.Now()
	var n int
	var err error
	if cursor {
		n, err = f.WriteCtx(ctx, b)
	} else {
		n, err = f.WriteAtCtx(ctx, b, off)
	}
	t1 := time.Now()
	s.span(opWrite, f.Name(), off, len(b), t0, t1)
	if err == nil && n != len(b) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(b))
	}
	if err != nil {
		return s.fail(fmt.Sprintf("write %s@%d", f.Name(), off), err)
	}
	s.ops++
	if s.timed {
		if s.firstWrite.IsZero() {
			s.firstWrite = t0
		}
		s.acks = append(s.acks, ack{at: t1, n: int64(n)})
		s.writeLat = append(s.writeLat, int64(t1.Sub(t0)))
		s.writeBytes += int64(n)
	}
	return nil
}

// ack is one acknowledged write: when its reply arrived and its size.
type ack struct {
	at time.Time
	n  int64
}

func (s *stream) read(ctx context.Context, f *core.File, b []byte, off int64) error {
	s.attempted++
	t0 := time.Now()
	n, err := f.ReadAtCtx(ctx, b, off)
	t1 := time.Now()
	s.span(opRead, f.Name(), off, len(b), t0, t1)
	if err == nil && n != len(b) {
		err = fmt.Errorf("short read: %d of %d bytes", n, len(b))
	}
	if err != nil {
		return s.fail(fmt.Sprintf("read %s@%d", f.Name(), off), err)
	}
	s.ops++
	if s.timed {
		s.readLat = append(s.readLat, int64(t1.Sub(t0)))
		s.readBytes += int64(n)
		s.readBusy += t1.Sub(t0)
	}
	return nil
}

func (s *stream) sync(ctx context.Context, f *core.File) error {
	s.attempted++
	t0 := time.Now()
	err := f.SyncCtx(ctx)
	t1 := time.Now()
	s.span(opSync, f.Name(), -1, 0, t0, t1)
	if err != nil {
		return s.fail("sync "+f.Name(), err)
	}
	s.ops++
	if s.timed {
		s.lastSync = t1
	}
	return nil
}

func (s *stream) stat(ctx context.Context, f *core.File, want int64) error {
	s.attempted++
	t0 := time.Now()
	size, err := f.StatCtx(ctx)
	s.span(opStat, f.Name(), -1, 0, t0, time.Now())
	if err != nil {
		return s.fail("stat "+f.Name(), err)
	}
	s.ops++
	if size != want && s.mismatch == "" {
		s.mismatch = fmt.Sprintf("stat %s: size %d, want %d", f.Name(), size, want)
	}
	return nil
}

// check verifies a block read back against the pattern it was written
// with; a mismatch is remembered, not returned, so the run finishes and
// reports correct=false.
func (s *stream) check(p *pattern, b []byte, key uint64, what string) {
	if !p.matches(b, key) && s.mismatch == "" {
		s.mismatch = "content mismatch at " + what
	}
}
