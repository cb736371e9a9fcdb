package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Mode selects the server's execution model (see the package comment).
type Mode int

// Execution modes.
const (
	// ModeDirect executes operations on the per-connection handler.
	ModeDirect Mode = iota
	// ModeWorkQueue schedules operations on the worker pool; callers block.
	ModeWorkQueue
	// ModeAsync adds asynchronous data staging for writes.
	ModeAsync
)

func (m Mode) String() string {
	switch m {
	case ModeDirect:
		return "direct"
	case ModeWorkQueue:
		return "workqueue"
	case ModeAsync:
		return "async"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config configures a Server.
type Config struct {
	// Mode selects the execution model; the default is ModeDirect.
	Mode Mode
	// Workers is the worker-pool size for ModeWorkQueue and ModeAsync
	// (paper default: 4).
	Workers int
	// Shards is the number of scheduler task queues. Producers hash tasks to
	// shards by descriptor, each worker drains its own shard and steals from
	// the busiest sibling when idle. 0 picks one shard per worker, capped at
	// GOMAXPROCS.
	Shards int
	// Batch is the maximum number of tasks a worker dequeues per wakeup.
	Batch int
	// BMLBytes caps staging memory; writes block when it is exhausted.
	BMLBytes int64
	// Backend executes the terminal I/O; the default is NewMemBackend().
	Backend Backend
	// Filters, when non-nil, processes every write payload on the
	// forwarding node before it reaches the backend (the paper's data
	// filtering / in-situ analytics offload). Filters must not grow the
	// payload.
	Filters *FilterChain
	// Metrics, when non-nil, is the telemetry registry the server
	// registers its instruments on (a fresh one is created otherwise).
	// Each Server needs its own registry.
	Metrics *telemetry.Registry
	// QueueHighWater, when > 0, sheds incoming data operations with EAGAIN
	// while the scheduler's aggregate queued-task depth (summed over all
	// shards) is at least this deep, instead of letting a stalled backend
	// absorb unbounded queued work and block every forwarder. Shedding
	// happens before any side effect (no cursor movement, no staging), so
	// EAGAIN is always safe to retry.
	QueueHighWater int
	// BMLTimeout, when > 0, bounds the wait for staging-pool admission;
	// past it a write degrades to the synchronous path with an unpooled
	// buffer (reply carries FlagDegraded) instead of blocking forever on
	// BML exhaustion. 0 keeps the paper's pure back-pressure behaviour.
	BMLTimeout time.Duration
	// Spill, when non-nil, absorbs ModeAsync writes that miss staging-pool
	// admission into a durable write-ahead tier (internal/wal) instead of
	// degrading them to the synchronous path: the record is logged locally,
	// acknowledged with FlagStaged|FlagSpilled, and drained to the backend
	// in the background. A Spill refusal (full/closed) still falls back to
	// the synchronous degrade path, so the write never blocks on the tier.
	Spill Spiller
}

// ServerStats are cumulative server counters.
type ServerStats struct {
	Ops          uint64
	BytesWritten uint64
	BytesRead    uint64
	StagedWrites uint64
	WorkerBatch  uint64
	Conns        uint64
	// Shed counts data operations refused with EAGAIN under overload.
	Shed uint64
	// Degraded counts writes that bypassed staging after a BML admission
	// timeout.
	Degraded uint64
	// Spilled counts writes absorbed by the write-ahead spill tier after a
	// BML admission timeout.
	Spilled uint64
	// WorkerPanics counts backend panics recovered by the worker pool.
	WorkerPanics uint64
}

// Server is a forwarding server.
type Server struct {
	cfg     Config
	bml     *BML
	sched   *scheduler
	metrics *serverMetrics

	mu        sync.Mutex
	listeners []net.Listener
	closed    bool
	workerWG  sync.WaitGroup
}

// NewServer builds a server and starts its worker pool if the mode needs
// one.
func NewServer(cfg Config) *Server {
	if cfg.Backend == nil {
		cfg.Backend = NewMemBackend()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.BMLBytes <= 0 {
		cfg.BMLBytes = 256 << 20
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{cfg: cfg, bml: NewBML(cfg.BMLBytes), metrics: newServerMetrics(reg)}
	if cfg.Mode != ModeDirect {
		nshards := cfg.Shards
		if nshards <= 0 {
			nshards = defaultShards(cfg.Workers)
		}
		s.sched = newScheduler(nshards)
	}
	s.metrics.wire(s)
	if s.sched != nil {
		for i := 0; i < cfg.Workers; i++ {
			s.workerWG.Add(1)
			go s.worker(i)
		}
	}
	return s
}

// Metrics returns the server's telemetry registry (serve it at /metrics —
// see cmd/fwdd).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// Mode returns the server's execution model.
func (s *Server) Mode() Mode { return s.cfg.Mode }

// BMLStats exposes the staging pool counters.
func (s *Server) BMLStats() BMLStats { return s.bml.Stats() }

// Stats returns a snapshot of the server counters, read from the telemetry
// registry's atomics (the single source of truth the /metrics endpoint also
// exports).
func (s *Server) Stats() ServerStats {
	m := s.metrics
	var ops uint64
	for i := range m.requests {
		ops += m.requests[i].Value()
	}
	return ServerStats{
		Ops:          ops,
		BytesWritten: m.bytesWritten.Value(),
		BytesRead:    m.bytesRead.Value(),
		StagedWrites: m.staged.Value(),
		WorkerBatch:  m.batches.Value(),
		Conns:        m.conns.Value(),
		Shed:         m.shed.Value(),
		Degraded:     m.bmlDegraded.Value(),
		Spilled:      m.spilled.Value(),
		WorkerPanics: m.workerPanics.Value(),
	}
}

// shouldShed reports whether the scheduler is past its high-water mark. The
// depth read is a single atomic load, so the per-operation shed check never
// contends with producers or workers on a shard lock.
func (s *Server) shouldShed() bool {
	return s.sched != nil && s.cfg.QueueHighWater > 0 && s.sched.depth() >= s.cfg.QueueHighWater
}

// Serve accepts connections until the listener fails or the server closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ECLOSED
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		//lint:allow goroleak per-connection handlers exit on their conn's EOF/error; Close closes the listeners and in-flight conns are interrupted by their next I/O
		go func() { _ = s.ServeConn(c) }()
	}
}

// Close stops accepting, drains the worker pool, and releases resources.
// In-flight connections are interrupted by their next I/O.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ls := s.listeners
	s.mu.Unlock()
	for _, l := range ls {
		_ = l.Close()
	}
	if s.sched != nil {
		s.sched.close()
		s.workerWG.Wait()
	}
	return nil
}

// ServeConn handles one client connection until EOF or error. It is
// exported so tests and in-process users can serve a net.Pipe end directly.
func (s *Server) ServeConn(nc net.Conn) error {
	s.metrics.conns.Inc()
	s.metrics.activeConns.Inc()
	defer s.metrics.activeConns.Dec()
	c := &serverConn{srv: s, nc: nc, db: newDescDB(s.metrics)}
	err := c.run()
	c.teardown()
	_ = nc.Close()
	if err == io.EOF || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// serverConn is the per-connection handler — the role of the per-CN ZOID
// thread. It decodes requests sequentially; whether it executes them itself
// or hands them to the worker pool depends on the server mode.
type serverConn struct {
	srv *Server
	nc  net.Conn
	db  *descDB
}

func (c *serverConn) run() (err error) {
	// A panic in a handler outside the backend call (a filter, say) costs
	// this connection, never the process; the deferred teardown in
	// ServeConn still drains and closes the connection's descriptors.
	defer func() {
		if r := recover(); r != nil {
			c.srv.metrics.connPanics.Inc()
			err = fmt.Errorf("%w: connection handler recovered panic: %v", EIO, r)
		}
	}()
	var h header
	for {
		if err := readHeader(c.nc, &h); err != nil {
			return err
		}
		if err := c.dispatch(&h); err != nil {
			return err
		}
	}
}

// teardown drains and closes every descriptor left open by the client.
func (c *serverConn) teardown() {
	for _, d := range c.db.all() {
		d.drain()
		_ = d.handle.Close()
		c.db.remove(d.fd)
	}
}

// reply sends a response frame. value carries op-specific results (fd,
// size, byte count); payload carries read data.
func (c *serverConn) reply(reqID uint64, flags uint16, errno Errno, value int64, payload []byte) error {
	h := header{
		op:      0, // responses reuse the header with op 0
		flags:   flags,
		reqID:   reqID,
		offset:  uint64(value),
		length:  uint32(len(payload)),
		pathLen: uint16(errno),
	}
	m := c.srv.metrics
	if errno != EOK {
		m.replyErrors.Inc()
	}
	t0 := time.Now()
	err := writeFrame(c.nc, &h, payload)
	m.stageReply.Observe(time.Since(t0).Nanoseconds())
	return err
}

// replyFrame sends a response whose payload already sits in a BML-leased
// reply frame (from Lease): the header is encoded into the frame's reserved
// header room and header+payload leave in a single connection write. The
// frame is returned to the pool here, exactly once, after the wire write.
func (c *serverConn) replyFrame(reqID uint64, flags uint16, errno Errno, frame []byte, n int) error {
	h := header{
		op:      0, // responses reuse the header with op 0
		flags:   flags,
		reqID:   reqID,
		offset:  uint64(int64(n)),
		length:  uint32(n),
		pathLen: uint16(errno),
	}
	h.encode((*[headerSize]byte)(frame))
	m := c.srv.metrics
	if errno != EOK {
		m.replyErrors.Inc()
	}
	// Counted before the wire write, so a client that has seen the reply
	// also sees the count.
	m.zeroCopyReplies.Inc()
	t0 := time.Now()
	_, err := c.nc.Write(frame[:headerSize+n])
	m.stageReply.Observe(time.Since(t0).Nanoseconds())
	c.srv.bml.Put(frame)
	return err
}

// deferredFlags folds a descriptor's pending deferred error into a reply.
func deferredFlags(d *descriptor) (uint16, Errno) {
	if err := d.takeError(); err != nil {
		return FlagDeferredErr, toErrno(errors.Unwrap(err))
	}
	return 0, EOK
}

// dispatch times the whole request (header decoded to reply written) into
// the per-op latency histogram around handleOp.
func (c *serverConn) dispatch(h *header) error {
	m := c.srv.metrics
	i := opIndex(h.op)
	m.requests[i].Inc()
	start := time.Now()
	err := c.handleOp(h, start)
	m.reqLatency[i].Observe(time.Since(start).Nanoseconds())
	return err
}

func (c *serverConn) handleOp(h *header, start time.Time) error {
	s := c.srv
	switch h.op {
	case OpOpen:
		if h.pathLen == 0 || h.pathLen > MaxPath {
			return c.reply(h.reqID, 0, EINVAL, 0, nil)
		}
		path := make([]byte, h.pathLen)
		if _, err := io.ReadFull(c.nc, path); err != nil {
			return err
		}
		handle, err := s.cfg.Backend.Open(string(path), true)
		if err != nil {
			return c.reply(h.reqID, 0, toErrno(err), 0, nil)
		}
		d := c.db.open(string(path), handle)
		return c.reply(h.reqID, 0, EOK, int64(d.fd), nil)

	case OpClose:
		d, ok := c.db.lookup(h.fd)
		if !ok {
			return c.reply(h.reqID, 0, EBADF, 0, nil)
		}
		d.drain()
		flags, errno := deferredFlags(d)
		if err := d.handle.Close(); err != nil && errno == EOK {
			errno = toErrno(err)
		}
		c.db.remove(h.fd)
		return c.reply(h.reqID, flags, errno, 0, nil)

	case OpWrite, OpPwrite:
		return c.handleWrite(h, start)

	case OpRead, OpPread:
		return c.handleRead(h)

	case OpFsync:
		d, ok := c.db.lookup(h.fd)
		if !ok {
			return c.reply(h.reqID, 0, EBADF, 0, nil)
		}
		d.drain()
		flags, errno := deferredFlags(d)
		if err := d.handle.Sync(); err != nil && errno == EOK {
			errno = toErrno(err)
		}
		return c.reply(h.reqID, flags, errno, 0, nil)

	case OpStat:
		d, ok := c.db.lookup(h.fd)
		if !ok {
			return c.reply(h.reqID, 0, EBADF, 0, nil)
		}
		size, err := d.handle.Size()
		return c.reply(h.reqID, 0, toErrno(err), size, nil)

	case OpFlush:
		for _, d := range c.db.all() {
			d.drain()
		}
		return c.reply(h.reqID, 0, EOK, 0, nil)

	case OpErrPoll:
		d, ok := c.db.lookup(h.fd)
		if !ok {
			return c.reply(h.reqID, 0, EBADF, 0, nil)
		}
		flags, errno := deferredFlags(d)
		return c.reply(h.reqID, flags, errno, 0, nil)
	}
	return c.reply(h.reqID, 0, EINVAL, 0, nil)
}

// handleWrite runs a write through the server's one write path: admit,
// place, then execute and acknowledge. start is the dispatch timestamp; the
// recv stage is measured from it to payload-received (BML admission wait
// included — that is the staging back-pressure the paper describes).
func (c *serverConn) handleWrite(h *header, start time.Time) error {
	s := c.srv
	m := s.metrics
	w, errno, err := c.admitWrite(h, start)
	if err != nil {
		return err
	}
	if errno != EOK {
		return c.reply(h.reqID, 0, errno, 0, nil)
	}
	n := int64(h.length)
	p := c.placeWrite(&w)
	switch p {
	case placeSpilled:
		c.release(&w) // the spiller copied the payload into its frame
		// Deferred flags are folded in only after the append landed, so a
		// refused spill leaves the pending error for the fallback reply.
		flags, errno := deferredFlags(w.d)
		return c.reply(h.reqID, flags|FlagStaged|FlagSpilled, errno, n, nil)

	case placeStaged:
		flags, errno := deferredFlags(w.d)
		w.d.start()
		if err := s.sched.put(&task{d: w.d, op: OpWrite, buf: w.buf, off: w.off, opNum: w.opNum, enq: w.recvd}); err != nil {
			w.d.complete(w.opNum, nil) // undo start: the op never entered the queue
			c.release(&w)
			m.queueRejects.Inc()
			return c.reply(h.reqID, flags, ECLOSED, 0, nil)
		}
		m.staged.Inc()
		return c.reply(h.reqID, flags|FlagStaged, errno, n, nil)
	}
	var flags uint16
	if !w.pooled {
		m.bmlDegraded.Inc()
		flags = FlagDegraded
	}
	_, rejected, err := c.runSync(task{d: w.d, op: OpWrite, buf: w.buf, off: w.off, enq: w.recvd}, p == placeInline)
	c.release(&w)
	if rejected {
		return c.reply(h.reqID, 0, toErrno(err), 0, nil)
	}
	return c.reply(h.reqID, flags, toErrno(err), n, nil)
}

// admittedWrite is a write that passed admission: its payload sits in buf
// (a BML buffer when pooled, an unpooled degraded one otherwise), the
// filters have run over it, and its offset and op number are reserved.
type admittedWrite struct {
	d      *descriptor
	buf    []byte
	pooled bool
	off    int64
	opNum  uint64
	recvd  time.Time
}

// release returns w's buffer to the staging pool if it came from there.
func (c *serverConn) release(w *admittedWrite) {
	if w.pooled {
		c.srv.bml.Put(w.buf)
	}
}

// admitWrite is the write path's admission step: descriptor lookup, BML
// admission, payload receive, filters, overload shedding, and offset
// reservation, in that order. A refusal is returned as a non-OK errno for
// the caller to reply with; it happens before the offset is reserved, so a
// refused write has no side effect (EAGAIN is safely retryable) and holds
// no buffer. A non-nil error means the connection failed.
func (c *serverConn) admitWrite(h *header, start time.Time) (w admittedWrite, errno Errno, err error) {
	s := c.srv
	m := s.metrics
	d, ok := c.db.lookup(h.fd)
	if !ok {
		// Drain the payload to keep the stream in sync.
		if _, err := io.CopyN(io.Discard, c.nc, int64(h.length)); err != nil {
			return w, EOK, err
		}
		return w, EBADF, nil
	}
	w.d = d
	// Receive into a staging buffer. Allocation blocks under the BML cap,
	// which back-pressures the client exactly as the paper describes. With
	// BMLTimeout set, exhaustion instead degrades this write to an unpooled
	// buffer, so one stalled backend cannot wedge every forwarder on
	// admission forever.
	w.buf, w.pooled = s.bml.GetTimeout(int(h.length), s.cfg.BMLTimeout)
	if !w.pooled {
		w.buf = make([]byte, h.length)
	}
	if _, err := io.ReadFull(c.nc, w.buf); err != nil {
		c.release(&w)
		return w, EOK, err
	}
	w.recvd = time.Now()
	m.stageRecv.Observe(w.recvd.Sub(start).Nanoseconds())
	m.writeBytes.Observe(int64(h.length))
	// Forwarding-node data filtering happens before offsets are reserved,
	// so reduced output still lands contiguously under cursor writes.
	if s.cfg.Filters != nil {
		filtered, ferr := s.cfg.Filters.Apply(d.name, int64(h.offset), w.buf)
		if ferr != nil {
			c.release(&w)
			return w, toErrno(ferr), nil
		}
		if len(filtered) > len(w.buf) {
			c.release(&w)
			return w, EINVAL, nil
		}
		if len(filtered) == 0 {
			w.buf = w.buf[:0]
		} else if &filtered[0] != &w.buf[0] || len(filtered) != len(w.buf) {
			w.buf = w.buf[:copy(w.buf, filtered)]
		}
	}
	if s.shouldShed() {
		c.release(&w)
		m.shed.Inc()
		return w, EAGAIN, nil
	}
	if h.op == OpPwrite {
		w.off = int64(h.offset)
		w.opNum = d.at()
	} else {
		w.off, w.opNum = d.nextOffset(int64(len(w.buf)))
	}
	m.bytesWritten.Add(uint64(h.length))
	return w, EOK, nil
}

// placement is where an admitted write executes.
type placement int

const (
	placeInline  placement = iota // on this handler; acknowledged after it ran
	placeQueued                   // on the worker pool; acknowledged after it ran
	placeStaged                   // on the worker pool; acknowledged once queued
	placeSpilled                  // logged by the spill tier and acknowledged; drained later
)

// placeWrite is the write path's one placement decision (DESIGN §6):
//
//   - async with a spill tier, and the write degraded or the descriptor
//     still has live spilled records: spilled. If the tier refuses, wait
//     for those records to be released and fall through (the ordering
//     rule on descriptor, descdb.go);
//   - direct mode, or a degraded write: inline. A degraded write is
//     synchronous by contract (FlagDegraded), and its unpooled buffer must
//     not be staged, since staging returns buffers to the pool;
//   - workqueue: queued;
//   - async: staged.
func (c *serverConn) placeWrite(w *admittedWrite) placement {
	s := c.srv
	if s.cfg.Mode == ModeAsync && s.cfg.Spill != nil && (!w.pooled || w.d.spillPending()) {
		if c.spill(w) {
			return placeSpilled
		}
		w.d.waitSpillReleased()
	}
	switch {
	case s.cfg.Mode == ModeDirect || !w.pooled:
		return placeInline
	case s.cfg.Mode == ModeWorkQueue:
		return placeQueued
	}
	return placeStaged
}

// spill offers w to the spill tier and reports whether the tier accepted
// it. An accepted record counts as a staged op on its descriptor until
// the drainer's done callback, so reads, fsync, and close drain it and its
// failure surfaces as a deferred error; it also counts as live in the WAL
// until released.
func (c *serverConn) spill(w *admittedWrite) bool {
	s := c.srv
	m := s.metrics
	d, opNum := w.d, w.opNum
	d.start()
	d.spillStart()
	if err := s.cfg.Spill.Append(d.name, w.off, w.buf, func(e error) { d.complete(opNum, e) }, d.spillRelease); err != nil {
		d.spillRelease()       // undo spillStart: the record never entered the log
		d.complete(opNum, nil) // undo start: ditto
		m.spillRejects.Inc()
		return false
	}
	m.spilled.Inc()
	m.stageSpill.Observe(time.Since(w.recvd).Nanoseconds())
	return true
}

// runSync executes t and waits for its backend result: on this handler
// when inline is set, otherwise on the worker pool. rejected reports that
// the pool refused t because the server is shutting down, so t never ran.
// Either way the caller keeps ownership of t.buf.
func (c *serverConn) runSync(t task, inline bool) (n int, rejected bool, err error) {
	s := c.srv
	if inline {
		err = s.runTask(&t, s.metrics.connPanics)
		s.metrics.stageBackend.Observe(time.Since(t.enq).Nanoseconds())
		return t.n, false, err
	}
	q := t
	q.done = make(chan error, 1)
	if err := s.sched.put(&q); err != nil {
		s.metrics.queueRejects.Inc()
		return 0, true, err
	}
	err = <-q.done
	return q.n, false, err
}

// handleRead executes or queues a read; reads block for the data in every
// mode, and under staging they first drain preceding writes on the
// descriptor so the client observes its own writes.
//
// The reply is zero-copy: the backend reads directly into the payload region
// of a BML-leased reply frame, the response header is encoded into the
// frame's header room, and the whole frame goes out in one connection write
// before the frame returns to the pool — no scratch buffer, no payload copy,
// no separate header write.
func (c *serverConn) handleRead(h *header) error {
	s := c.srv
	m := s.metrics
	d, ok := c.db.lookup(h.fd)
	if !ok {
		return c.reply(h.reqID, 0, EBADF, 0, nil)
	}
	// A read whose padded reply frame could never be admitted by the staging
	// pool is refused before the cursor moves, instead of panicking in the
	// pool allocator.
	if !s.bml.LeaseFits(int(h.length)) {
		return c.reply(h.reqID, 0, EINVAL, 0, nil)
	}
	// Shed before the cursor moves so a refused read has no side effect.
	if s.shouldShed() {
		m.shed.Inc()
		return c.reply(h.reqID, 0, EAGAIN, 0, nil)
	}
	var off int64
	if h.op == OpPread {
		off = int64(h.offset)
		d.at()
	} else {
		off, _ = d.nextOffset(int64(h.length))
	}
	var flags uint16
	var derrno Errno
	if s.cfg.Mode == ModeAsync {
		d.drain()
		flags, derrno = deferredFlags(d)
	}
	frame := s.bml.Lease(int(h.length))
	t := task{d: d, op: OpRead, buf: frame[headerSize : headerSize+int(h.length)], off: off, enq: time.Now()}
	n, rejected, err := c.runSync(t, s.cfg.Mode == ModeDirect)
	if rejected {
		s.bml.Put(frame)
		return c.reply(h.reqID, flags, toErrno(err), 0, nil)
	}
	m.readBytes.Observe(int64(n))
	m.bytesRead.Add(uint64(n))
	errno := toErrno(err)
	if derrno != EOK && errno == EOK {
		errno = derrno
	}
	return c.replyFrame(h.reqID, flags, errno, frame, n)
}
