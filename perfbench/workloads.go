package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
)

// conns is the connection count of every workload: 2, or fewer on a
// machine with fewer CPUs. More connections than CPUs would measure the Go
// scheduler rather than the forwarding path.
var conns = min(2, runtime.NumCPU())

// params sizes the workloads. The harness self-test shrinks them.
type params struct {
	ckptSteps   int // checkpoint steps (files) per connection per epoch
	ckptFileMiB int // file size; written as 1 MiB cursor writes

	mixBlocks int // 4 KiB blocks in each connection's working set
	mixDepth  int // ops in flight per connection (assumed; see README.md)
	mixOps    int // ops per closed-loop stream per epoch

	spillBlocks  int           // 64 KiB blocks of the shared file per epoch
	memberOpCost time.Duration // fixed per-op cost of each stripe member

	// Epochs of a traced pass, per workload. The traced pass runs a fixed
	// amount of work, so its totals (self times, busy times, steals) are
	// costs of that work and do not grow with throughput.
	ckptTraced, mixTraced, spillTraced int

	// wrap, when set, wraps the server's backend (the harness self-test
	// corrupts a byte through it).
	wrap func(core.Backend) core.Backend
}

var defaultParams = params{
	ckptSteps:    2,
	ckptFileMiB:  32,
	mixBlocks:    4096,
	mixDepth:     4,
	mixOps:       8192,
	spillBlocks:  512,
	memberOpCost: time.Millisecond,
	ckptTraced:   16,
	mixTraced:    3,
	spillTraced:  10,
}

// The smallop-mix op shares, in percent. No source in the repository gives
// an operation mix for small-op HPC traffic, so these are assumptions (see
// README.md): writes are half the ops because the forwarding path stages
// and acknowledges writes early; reads are the next largest share so that
// reads behind staged writes, which must drain them first, are common;
// Stats are payload-free requests that measure per-request cost alone.
const (
	mixWritePct = 50
	mixReadPct  = 35 // the rest, 15%, are Stats
)

// epoch is one assembled stack and one pass of a workload over it.
type epoch struct {
	seed    uint64
	p       params
	pat     *pattern
	st      *stack
	streams []*stream // one per closed-loop issuer, same order every epoch
	files   [][]*core.File

	timedStart, timedEnd time.Time
	phaseOps             int64     // ops in the write/mix phase, for ops_s
	writeRates           []float64 // write_mib_s samples (see writeRates)
	versions             [][]uint32
}

type workload struct {
	name string
	// depth is the number of closed-loop streams per connection.
	depth func(p params) int
	// traced is the number of epochs of a traced pass.
	traced func(p params) int
	// writeSlice is the acknowledged bytes per write_mib_s sample; 0: one
	// sample per epoch (see writeRates).
	writeSlice int64
	spec       func(p params) stackSpec
	// setup opens files and preallocates; it is part of set-up time.
	setup func(ctx context.Context, ep *epoch) error
	// run is the timed phase, followed by readback verification.
	run func(ctx context.Context, ep *epoch) error
}

var workloads = []workload{
	{
		name:   "ckpt-stream",
		depth:  one,
		traced: func(p params) int { return p.ckptTraced },
		spec:   func(p params) stackSpec { return stackSpec{wrap: p.wrap} },
		setup:  ckptSetup,
		run:    ckptRun,
	},
	{
		name:   "smallop-mix",
		depth:  func(p params) int { return p.mixDepth },
		traced: func(p params) int { return p.mixTraced },
		spec:   func(p params) stackSpec { return stackSpec{wrap: p.wrap} },
		setup:  mixSetup,
		run:    mixRun,
	},
	{
		name:   "spill-stripe",
		depth:  one,
		traced: func(p params) int { return p.spillTraced },
		// An epoch's burst is ~0.05 s of its ~1.7 s (the drain is the
		// rest), so one sample per epoch gives a run only ~20 short
		// windows, and a host stall in one shifts that epoch whole. One
		// sample per WAL segment (8 MiB) keeps a rotation in each.
		writeSlice: 8 * mib,
		spec: func(p params) stackSpec {
			return stackSpec{
				bmlBytes:     1 << 20,
				bmlTimeout:   2 * time.Millisecond,
				striped:      true,
				memberOpCost: p.memberOpCost,
				wrap:         p.wrap,
			}
		},
		setup: spillSetup,
		run:   spillRun,
	},
}

func one(params) int { return 1 }

// parallel runs fn(i) for every i in [0, n) concurrently and waits for
// all of them; it returns the first error by index.
func parallel(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func setTimed(ss []*stream, on bool) {
	for _, s := range ss {
		s.timed = on
	}
}

func opsOf(ss []*stream) int64 {
	var n int64
	for _, s := range ss {
		n += s.ops
	}
	return n
}

// --- ckpt-stream ---

const mib = 1 << 20

func ckptSetup(ctx context.Context, ep *epoch) error {
	ep.files = make([][]*core.File, conns)
	return parallel(conns, func(c int) error {
		for k := 0; k < ep.p.ckptSteps; k++ {
			f, err := ep.streams[c].open(ctx, ep.st.clients[c], fmt.Sprintf("ckpt/rank%d/step%d", c, k))
			if err != nil {
				return err
			}
			ep.files[c] = append(ep.files[c], f)
		}
		return nil
	})
}

func ckptRun(ctx context.Context, ep *epoch) error {
	setTimed(ep.streams, true)
	before := opsOf(ep.streams)
	ep.timedStart = time.Now()
	err := parallel(conns, func(c int) error {
		s := ep.streams[c]
		buf := make([]byte, mib)
		for k, f := range ep.files[c] {
			for i := 0; i < ep.p.ckptFileMiB; i++ {
				ep.pat.fill(buf, blockKey(ep.seed, uint64(c), uint64(k), uint64(i)))
				if err := s.write(ctx, f, buf, int64(i)*mib, true); err != nil {
					return err
				}
			}
			if err := s.sync(ctx, f); err != nil {
				return err
			}
		}
		return nil
	})
	ep.phaseOps = opsOf(ep.streams) - before
	if err != nil {
		return err
	}
	err = parallel(conns, func(c int) error {
		s := ep.streams[c]
		buf := make([]byte, mib)
		for k, f := range ep.files[c] {
			for i := 0; i < ep.p.ckptFileMiB; i++ {
				if err := s.read(ctx, f, buf, int64(i)*mib); err != nil {
					return err
				}
				s.check(ep.pat, buf, blockKey(ep.seed, uint64(c), uint64(k), uint64(i)), fmt.Sprintf("%s@%d", f.Name(), int64(i)*mib))
			}
		}
		return nil
	})
	ep.timedEnd = time.Now()
	setTimed(ep.streams, false)
	return err
}

// --- smallop-mix ---

const smallOp = 4 << 10

func mixSetup(ctx context.Context, ep *epoch) error {
	ep.files = make([][]*core.File, conns)
	ep.versions = make([][]uint32, conns)
	return parallel(conns, func(c int) error {
		s := ep.streams[c*ep.p.mixDepth]
		f, err := s.open(ctx, ep.st.clients[c], fmt.Sprintf("mix/rank%d", c))
		if err != nil {
			return err
		}
		ep.files[c] = []*core.File{f}
		ep.versions[c] = make([]uint32, ep.p.mixBlocks)
		// Preallocate the working set in 1 MiB writes, so the timed phase
		// never extends the file.
		per := mib / smallOp
		buf := make([]byte, mib)
		for b0 := 0; b0 < ep.p.mixBlocks; b0 += per {
			n := min(per, ep.p.mixBlocks-b0)
			for j := 0; j < n; j++ {
				ep.pat.fill(buf[j*smallOp:(j+1)*smallOp], blockKey(ep.seed, uint64(c), uint64(b0+j), 0))
			}
			if err := s.write(ctx, f, buf[:n*smallOp], int64(b0)*smallOp, false); err != nil {
				return err
			}
		}
		return s.sync(ctx, f)
	})
}

func mixRun(ctx context.Context, ep *epoch) error {
	d := ep.p.mixDepth
	size := int64(ep.p.mixBlocks) * smallOp
	setTimed(ep.streams, true)
	before := opsOf(ep.streams)
	ep.timedStart = time.Now()
	err := parallel(conns*d, func(i int) error {
		c, slot := i/d, i%d
		s, f, ver := ep.streams[i], ep.files[c][0], ep.versions[c]
		rng := rand.New(rand.NewSource(int64(blockKey(ep.seed, uint64(c), uint64(slot), 0xA11))))
		buf := make([]byte, smallOp)
		owned := ep.p.mixBlocks / d // this slot owns blocks slot, slot+d, ...
		for k := 0; k < ep.p.mixOps; k++ {
			r := rng.Intn(100)
			b := slot + d*rng.Intn(owned)
			off := int64(b) * smallOp
			switch {
			case r < mixWritePct:
				ver[b]++
				ep.pat.fill(buf, blockKey(ep.seed, uint64(c), uint64(b), uint64(ver[b])))
				if err := s.write(ctx, f, buf, off, false); err != nil {
					return err
				}
			case r < mixWritePct+mixReadPct:
				if err := s.read(ctx, f, buf, off); err != nil {
					return err
				}
				s.check(ep.pat, buf, blockKey(ep.seed, uint64(c), uint64(b), uint64(ver[b])), fmt.Sprintf("%s@%d", f.Name(), off))
			default:
				if err := s.stat(ctx, f, size); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil {
		err = parallel(conns, func(c int) error { return ep.streams[c*d].sync(ctx, ep.files[c][0]) })
	}
	ep.timedEnd = time.Now()
	ep.phaseOps = opsOf(ep.streams) - before
	setTimed(ep.streams, false)
	if err != nil {
		return err
	}
	// Every acknowledged byte of the working set, read back in 1 MiB reads.
	return parallel(conns, func(c int) error {
		s, f := ep.streams[c*d], ep.files[c][0]
		per := mib / smallOp
		buf := make([]byte, mib)
		for b0 := 0; b0 < ep.p.mixBlocks; b0 += per {
			n := min(per, ep.p.mixBlocks-b0)
			if err := s.read(ctx, f, buf[:n*smallOp], int64(b0)*smallOp); err != nil {
				return err
			}
			for j := 0; j < n; j++ {
				b := b0 + j
				s.check(ep.pat, buf[j*smallOp:(j+1)*smallOp], blockKey(ep.seed, uint64(c), uint64(b), uint64(ep.versions[c][b])),
					fmt.Sprintf("readback %s@%d", f.Name(), int64(b)*smallOp))
			}
		}
		return nil
	})
}

// --- spill-stripe ---

const stripeBlock = 64 << 10

func spillSetup(ctx context.Context, ep *epoch) error {
	ep.files = make([][]*core.File, conns)
	return parallel(conns, func(c int) error {
		f, err := ep.streams[c].open(ctx, ep.st.clients[c], "shared/ckpt.dat")
		if err != nil {
			return err
		}
		ep.files[c] = []*core.File{f}
		return nil
	})
}

func spillRun(ctx context.Context, ep *epoch) error {
	setTimed(ep.streams, true)
	before := opsOf(ep.streams)
	ep.timedStart = time.Now()
	// Connection c owns blocks c, c+conns, c+2*conns, ... of the shared
	// file: disjoint, interleaved, N-to-1.
	err := parallel(conns, func(c int) error {
		s, f := ep.streams[c], ep.files[c][0]
		buf := make([]byte, stripeBlock)
		for b := c; b < ep.p.spillBlocks; b += conns {
			ep.pat.fill(buf, blockKey(ep.seed, uint64(b)))
			if err := s.write(ctx, f, buf, int64(b)*stripeBlock, false); err != nil {
				return err
			}
		}
		return s.sync(ctx, f)
	})
	ep.phaseOps = opsOf(ep.streams) - before
	if err != nil {
		return err
	}
	err = parallel(conns, func(c int) error {
		s, f := ep.streams[c], ep.files[c][0]
		buf := make([]byte, stripeBlock)
		for b := c; b < ep.p.spillBlocks; b += conns {
			off := int64(b) * stripeBlock
			if err := s.read(ctx, f, buf, off); err != nil {
				return err
			}
			s.check(ep.pat, buf, blockKey(ep.seed, uint64(b)), fmt.Sprintf("%s@%d", f.Name(), off))
		}
		return nil
	})
	ep.timedEnd = time.Now()
	setTimed(ep.streams, false)
	return err
}
