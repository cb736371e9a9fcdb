package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// Layers that record spans. sched, bml and runtime have no span of their
// own: the benchmark reads them from the server's counters and from
// runtime/metrics instead.
type layer uint8

const (
	layerClient layer = iota
	layerWire
	layerServer
	layerBackend
	layerWAL
	layerStripe
	numLayers
)

var layerNames = [numLayers]string{"client", "wire", "server", "backend", "wal", "stripe"}

type spanOp uint8

const (
	opWrite spanOp = iota
	opRead
	opSync
	opStat
	opOpen
	opClose
	opAppend
	opRequest
	opTransit
)

var opNames = [...]string{"write", "read", "sync", "stat", "open", "close", "append", "request", "transit"}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started. conn is the connection index (client and wire
// spans, server requests), or the member index for stripe spans. name and
// off are the request key where the layer sees them; off is -1 for
// operations without an offset.
type span struct {
	start, end int64
	off        int64
	n          int32
	parent     int32 // index into tracer.spans, -1 for a root; set by analyse
	name       uint16
	conn       int16
	layer      layer
	op         spanOp
	server     bool // wire span written by the server side of the conn
}

// tracer keeps every span in memory; they are written out once the run
// ends, so recording costs one append under a lock.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	names  []string
	ids    map[string]uint16
	drains []int64 // per spilled record: WAL append return to drain done, ns
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), ids: map[string]uint16{"": 0}, names: []string{""}}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add records s with its request key's name interned.
func (t *tracer) add(s span, name string) {
	t.mu.Lock()
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	s.name = id
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// client records one client File call, timed by the workload's stream.
func (t *tracer) client(op spanOp, conn int, name string, off int64, n int, start, end time.Time) {
	t.add(span{layer: layerClient, op: op, conn: int16(conn), off: off, n: int32(n),
		start: t.since(start), end: t.since(end)}, name)
}

// --- core.Backend / core.Handle ---

// tracedBackend wraps a core.Backend. It is installed twice: as the
// server's (and WAL drainer's) backend, recording layer "backend", and
// around each stripe member, recording layer "stripe".
type tracedBackend struct {
	inner  core.Backend
	t      *tracer
	layer  layer
	member int
}

func (b *tracedBackend) Open(name string, create bool) (core.Handle, error) {
	s := time.Now()
	h, err := b.inner.Open(name, create)
	b.record(opOpen, name, -1, 0, s)
	if err != nil {
		return nil, err
	}
	return &tracedHandle{inner: h, b: b, name: name}, nil
}

func (b *tracedBackend) record(op spanOp, name string, off int64, n int, s time.Time) {
	e := time.Now()
	b.t.add(span{layer: b.layer, op: op, conn: int16(b.member), off: off, n: int32(n),
		start: b.t.since(s), end: b.t.since(e)}, name)
}

type tracedHandle struct {
	inner core.Handle
	b     *tracedBackend
	name  string
}

func (h *tracedHandle) WriteAt(p []byte, off int64) (int, error) {
	s := time.Now()
	n, err := h.inner.WriteAt(p, off)
	h.b.record(opWrite, h.name, off, len(p), s)
	return n, err
}

func (h *tracedHandle) ReadAt(p []byte, off int64) (int, error) {
	s := time.Now()
	n, err := h.inner.ReadAt(p, off)
	h.b.record(opRead, h.name, off, len(p), s)
	return n, err
}

func (h *tracedHandle) Sync() error {
	s := time.Now()
	err := h.inner.Sync()
	h.b.record(opSync, h.name, -1, 0, s)
	return err
}

func (h *tracedHandle) Size() (int64, error) {
	s := time.Now()
	n, err := h.inner.Size()
	h.b.record(opStat, h.name, -1, 0, s)
	return n, err
}

func (h *tracedHandle) Close() error {
	s := time.Now()
	err := h.inner.Close()
	h.b.record(opClose, h.name, -1, 0, s)
	return err
}

// --- core.Spiller around *wal.Log ---

type tracedSpiller struct {
	inner core.Spiller
	t     *tracer
}

// ackDrain pairs a spilled record's ack (Append returning) with its drain
// (done firing), whichever comes second records the gap.
type ackDrain struct {
	mu          sync.Mutex
	acked, done int64
}

func (a *ackDrain) mark(t *tracer, ack bool) {
	now := t.since(time.Now())
	a.mu.Lock()
	if ack {
		a.acked = now
	} else {
		a.done = now
	}
	both := a.acked != 0 && a.done != 0
	gap := a.done - a.acked
	a.mu.Unlock()
	if both {
		if gap < 0 {
			gap = 0
		}
		t.mu.Lock()
		t.drains = append(t.drains, gap)
		t.mu.Unlock()
	}
}

func (s *tracedSpiller) Append(name string, off int64, data []byte, done func(error), released func()) error {
	ad := &ackDrain{}
	start := time.Now()
	err := s.inner.Append(name, off, data, func(e error) {
		ad.mark(s.t, false)
		done(e)
	}, released)
	s.t.add(span{layer: layerWAL, op: opAppend, off: off, n: int32(len(data)),
		start: s.t.since(start), end: s.t.since(time.Now())}, name)
	if err == nil {
		ad.mark(s.t, true)
	}
	return err
}

// --- net.Conn / net.Listener ---

// tracedConn records every Write as a wire span. On the server side it
// also rebuilds one "server" span per request without decoding frames: the
// server handles a connection's requests one at a time, reading a request
// and then writing its reply, so a request runs from the first Read that
// returns bytes after a reply until the last Write before the next Read.
type tracedConn struct {
	net.Conn
	t      *tracer
	idx    int
	server bool

	// Server side only; the connection's handler goroutine is the only
	// caller of Read and Write.
	inReq, replied       bool
	reqStart, lastWriteE int64
}

func (c *tracedConn) Write(b []byte) (int, error) {
	s := c.t.since(time.Now())
	n, err := c.Conn.Write(b)
	e := c.t.since(time.Now())
	c.t.add(span{layer: layerWire, op: opWrite, conn: int16(c.idx), off: -1, n: int32(n),
		start: s, end: e, server: c.server}, "")
	if c.server {
		c.replied = true
		c.lastWriteE = e
	}
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	if c.server && c.replied {
		c.endRequest()
	}
	n, err := c.Conn.Read(b)
	if c.server && !c.inReq && n > 0 {
		c.inReq = true
		c.reqStart = c.t.since(time.Now())
	}
	return n, err
}

func (c *tracedConn) endRequest() {
	c.t.add(span{layer: layerServer, op: opRequest, conn: int16(c.idx), off: -1,
		start: c.reqStart, end: c.lastWriteE}, "")
	c.inReq, c.replied = false, false
}

func (c *tracedConn) Close() error {
	if c.server && c.replied {
		c.endRequest()
	}
	return c.Conn.Close()
}

// tracedListener numbers accepted connections from base up. Clients dial
// one at a time, and the kernel hands out completed connections in order,
// so server conn i is client conn i.
type tracedListener struct {
	net.Listener
	t    *tracer
	next int
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &tracedConn{Conn: nc, t: l.t, idx: l.next, server: true}
	l.next++
	return c, nil
}

// --- analysis ---

type reqKey struct {
	name uint16
	off  int64
}

// analyse links each span to the span that caused it and returns every
// span's self time: its duration minus the part of it that its children
// cover. Links follow what each layer can see:
//
//   - server requests on conn i match client ops on conn i in order;
//   - the gaps of a client op before its server request starts and after
//     it ends are wire transit: the request or reply sits in the loopback
//     socket, or waits for a CPU to pick it up. They become synthesized
//     wire spans, children of the client op, counted as waiting
//     (wire.wait_s), not as any layer's self time;
//   - a client-side wire write belongs to the request transit of the
//     latest client op on its conn that started before it;
//   - a server-side wire write belongs to the server request around it;
//   - a WAL append belongs to the server request of the latest client op
//     with the same (name, offset);
//   - a backend op belongs to the WAL append of its key when the record was
//     spilled, else to the server request of the latest client op with its
//     key;
//   - a stripe member op belongs to the backend op of the same name that
//     encloses it in time and covers its offset.
func (t *tracer) analyse() []int64 {
	sp := t.spans
	byLayer := make([][]int32, numLayers)
	for i := range sp {
		sp[i].parent = -1
		byLayer[sp[i].layer] = append(byLayer[sp[i].layer], int32(i))
	}
	for _, ids := range byLayer {
		sort.Slice(ids, func(a, b int) bool { return sp[ids[a]].start < sp[ids[b]].start })
	}
	group := func(l layer, key func(*span) (any, bool)) map[any][]int32 {
		m := map[any][]int32{}
		for _, i := range byLayer[l] {
			if k, ok := key(&sp[i]); ok {
				m[k] = append(m[k], i)
			}
		}
		return m
	}
	// latest returns the last span in ids (sorted by start) that started
	// at or before at, or -1.
	latest := func(ids []int32, at int64) int32 {
		j := sort.Search(len(ids), func(k int) bool { return sp[ids[k]].start > at }) - 1
		if j < 0 {
			return -1
		}
		return ids[j]
	}
	connKey := func(s *span) (any, bool) { return int(s.conn), true }
	clientByConn := group(layerClient, connKey)
	clientByKey := group(layerClient, func(s *span) (any, bool) { return reqKey{s.name, s.off}, true })
	serverByConn := group(layerServer, connKey)
	walByKey := group(layerWAL, func(s *span) (any, bool) { return reqKey{s.name, s.off}, true })
	backendByName := group(layerBackend, func(s *span) (any, bool) { return s.name, true })

	serverOf := map[int32]int32{}
	for conn, reqs := range serverByConn {
		ops := clientByConn[conn]
		for k := 0; k < len(reqs) && k < len(ops); k++ {
			sp[reqs[k]].parent = ops[k]
			serverOf[ops[k]] = reqs[k]
		}
	}
	causeOf := func(op int32) int32 {
		if r, ok := serverOf[op]; ok {
			return r
		}
		return op
	}
	sendOf := map[int32]int32{}
	for _, op := range byLayer[layerClient] {
		r, ok := serverOf[op]
		if !ok {
			continue
		}
		o, q := sp[op], sp[r]
		if q.start > o.start {
			sendOf[op] = int32(len(sp))
			sp = append(sp, span{layer: layerWire, op: opTransit, conn: o.conn, off: -1, start: o.start, end: q.start, parent: op})
		}
		if o.end > q.end {
			sp = append(sp, span{layer: layerWire, op: opTransit, conn: o.conn, off: -1, start: q.end, end: o.end, parent: op})
		}
	}
	t.spans = sp
	for _, i := range byLayer[layerWire] {
		s := &sp[i]
		if s.server {
			if r := latest(serverByConn[int(s.conn)], s.start); r >= 0 && sp[r].end >= s.end {
				s.parent = r
			}
		} else if op := latest(clientByConn[int(s.conn)], s.start); op >= 0 && sp[op].end >= s.start {
			s.parent = op
			if tx, ok := sendOf[op]; ok && sp[tx].end >= s.end {
				s.parent = tx
			}
		}
	}
	for _, i := range byLayer[layerWAL] {
		s := &sp[i]
		if op := latest(clientByKey[reqKey{s.name, s.off}], s.start); op >= 0 {
			s.parent = causeOf(op)
		}
	}
	for _, i := range byLayer[layerBackend] {
		s := &sp[i]
		k := reqKey{s.name, s.off}
		op := latest(clientByKey[k], s.start)
		if op < 0 {
			continue
		}
		if a := latest(walByKey[k], s.start); a >= 0 && sp[a].start >= sp[op].start && sp[a].end <= s.start {
			s.parent = a
		} else {
			s.parent = causeOf(op)
		}
	}
	for _, i := range byLayer[layerStripe] {
		s := &sp[i]
		cands := backendByName[s.name]
		j := sort.Search(len(cands), func(k int) bool { return sp[cands[k]].start > s.start }) - 1
		for steps := 0; j >= 0 && steps < 4096; j, steps = j-1, steps+1 {
			c := &sp[cands[j]]
			if c.end < s.end {
				continue
			}
			if s.off < 0 || (c.off >= 0 && s.off >= c.off && s.off < c.off+int64(c.n)) {
				s.parent = cands[j]
				break
			}
		}
	}

	// Self time: subtract the union of each span's children, clipped to it.
	kids := make([][2]int64, 0, len(sp))
	order := make([]int32, 0, len(sp))
	for i := range sp {
		if sp[i].parent >= 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool { return sp[order[a]].parent < sp[order[b]].parent })
	self := make([]int64, len(sp))
	for i := range sp {
		self[i] = sp[i].end - sp[i].start
	}
	for a := 0; a < len(order); {
		p := sp[order[a]].parent
		kids = kids[:0]
		for ; a < len(order) && sp[order[a]].parent == p; a++ {
			c := &sp[order[a]]
			lo, hi := max(c.start, sp[p].start), min(c.end, sp[p].end)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		sort.Slice(kids, func(x, y int) bool { return kids[x][0] < kids[y][0] })
		var covered, curLo, curHi int64 = 0, -1, -1
		for _, k := range kids {
			if k[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = k[0], k[1]
			} else if k[1] > curHi {
				curHi = k[1]
			}
		}
		covered += curHi - curLo
		self[p] -= covered
	}
	return self
}

// writeOut saves every span, with its parent and self time, as gzipped
// tab-separated text.
func (t *tracer) writeOut(path string, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\tlayer\top\tconn\tserver_side\tname\toff\tbytes\tstart_ns\tend_ns\tself_ns")
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%t\t%s\t%d\t%d\t%d\t%d\t%d\n", i, s.parent,
			layerNames[s.layer], opNames[s.op], s.conn, s.server, t.names[s.name], s.off, s.n, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
