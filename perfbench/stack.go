package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/stripetier"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

const stripeMembers = 4

// stackSpec is the server a workload runs against. Every field left at its
// zero value takes fwdd's default.
type stackSpec struct {
	bmlBytes   int64
	bmlTimeout time.Duration
	// striped replaces the mem backend with a stripe tier of stripeMembers
	// file-backed members, each slowed by memberOpCost per operation,
	// behind a WAL spill tier with fwdd's default settings except its
	// fsync policy: the WAL syncs never, so acks time the program's append
	// path, not the shared host disk's fsync latency (README.md).
	striped      bool
	memberOpCost time.Duration
	// wrap, when set, wraps the backend the server and the WAL write to.
	wrap func(core.Backend) core.Backend
}

// stack is one assembled forwarding server on a loopback listener, built
// from the same public constructors cmd/fwdd uses, plus its clients.
type stack struct {
	srv       *core.Server
	ln        net.Listener
	serveDone chan error
	tier      *stripetier.Tier
	log       *wal.Log
	clients   []*core.Client
	dir       string
}

// openStack builds the server described by spec under dir and dials conns
// clients to it. With tr set, every layer boundary is wrapped for tracing,
// and connections are numbered from connBase.
func openStack(ctx context.Context, spec stackSpec, dir string, conns int, tr *tracer, connBase int) (_ *stack, err error) {
	st := &stack{dir: dir, serveDone: make(chan error, 1)}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var backend core.Backend
	var walDir string
	if spec.striped {
		walDir = filepath.Join(dir, "wal")
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		members := make([]core.Backend, stripeMembers)
		for i := range members {
			mdir := filepath.Join(dir, fmt.Sprintf("member-%d", i))
			if err := os.MkdirAll(mdir, 0o755); err != nil {
				return nil, err
			}
			var m core.Backend = core.NewSinkBackend(core.NewFileBackend(mdir), 0, spec.memberOpCost)
			if tr != nil {
				m = &tracedBackend{inner: m, t: tr, layer: layerStripe, member: i}
			}
			members[i] = m
		}
		st.tier, err = stripetier.New(members, stripetier.Config{
			StripeSize:     stripeBlock,
			Replicas:       2,
			PendingJournal: filepath.Join(walDir, "stripe-pending.journal"),
		})
		if err != nil {
			return nil, err
		}
		backend = st.tier
	} else {
		backend = core.NewMemBackend()
	}
	if spec.wrap != nil {
		backend = spec.wrap(backend)
	}
	if tr != nil {
		backend = &tracedBackend{inner: backend, t: tr, layer: layerBackend, member: -1}
	}
	cfg := core.Config{
		Mode:       core.ModeAsync,
		Workers:    4,
		Batch:      8,
		BMLBytes:   spec.bmlBytes,
		Backend:    backend,
		Metrics:    telemetry.NewRegistry(),
		BMLTimeout: spec.bmlTimeout,
	}
	if cfg.BMLBytes == 0 {
		cfg.BMLBytes = 256 << 20
	}
	if walDir != "" {
		tier := st.tier
		st.log, _, err = wal.Open(wal.Config{
			Dir:           walDir,
			Backend:       backend,
			SegmentBytes:  8 << 20,
			Sync:          wal.SyncNever,
			GroupCommit:   true,
			GroupLinger:   200 * time.Microsecond,
			GroupMaxBytes: 1 << 20,
			DrainFailed: func(name string, off int64, n int) {
				tier.EnqueueRepair(name, off, int64(n))
			},
		})
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		cfg.Spill = st.log
		if tr != nil {
			cfg.Spill = &tracedSpiller{inner: st.log, t: tr}
		}
	}
	st.srv = core.NewServer(cfg)
	st.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ln := st.ln
	if tr != nil {
		ln = &tracedListener{Listener: st.ln, t: tr, next: connBase}
	}
	srv := st.srv
	go func() { st.serveDone <- srv.Serve(ln) }()
	addr := st.ln.Addr().String()
	for i := 0; i < conns; i++ {
		var c *core.Client
		if tr == nil {
			c, err = core.ClientConfig{}.Dial(ctx, "tcp", addr)
		} else {
			var d net.Dialer
			var nc net.Conn
			if nc, err = d.DialContext(ctx, "tcp", addr); err == nil {
				c, err = core.ClientConfig{}.Client(&tracedConn{Conn: nc, t: tr, idx: connBase + i})
			}
		}
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// close tears the stack down in fwdd's order: clients first (the server
// drains their descriptors), then the server and its workers, then the
// WAL (which drains what is left to the tier), then the tier. It removes
// the stack's directory.
func (st *stack) close() {
	for _, c := range st.clients {
		_ = c.Close()
	}
	if st.srv != nil {
		st.waitConnsGone(5 * time.Second)
		_ = st.srv.Close()
		if st.ln != nil {
			<-st.serveDone
		}
	}
	if st.log != nil {
		_ = st.log.Close()
	}
	if st.tier != nil {
		_ = st.tier.Close()
	}
	_ = os.RemoveAll(st.dir)
}

// waitConnsGone waits until the server has torn down every connection, so
// no handler goroutine outlives the stack.
func (st *stack) waitConnsGone(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		f := telemetry.Find(st.srv.Metrics().Snapshot(), "iofwd_active_connections")
		if f == nil || len(f.Series) == 0 || f.Series[0].Value == nil || *f.Series[0].Value == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
