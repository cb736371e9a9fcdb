package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// corruptBackend damages one call of its handles: the first call of op
// ("write", "read" or "size") for which hit, given the call's number
// (from 1) and its byte count, returns true. A write is corrupted after
// the server has acknowledged it, a read on its way back to the client,
// and a size by reporting one byte more.
type corruptBackend struct {
	core.Backend
	op   string
	hit  func(n int64, size int) bool
	n    atomic.Int64
	done atomic.Bool
}

func (b *corruptBackend) Open(name string, create bool) (core.Handle, error) {
	h, err := b.Backend.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &corruptHandle{Handle: h, b: b}, nil
}

// fire reports whether this call of op is the one to corrupt.
func (b *corruptBackend) fire(op string, size int) bool {
	if op != b.op || b.done.Load() {
		return false
	}
	return b.hit(b.n.Add(1), size) && b.done.CompareAndSwap(false, true)
}

type corruptHandle struct {
	core.Handle
	b *corruptBackend
}

func (h *corruptHandle) WriteAt(p []byte, off int64) (int, error) {
	if h.b.fire("write", len(p)) {
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x01
		return h.Handle.WriteAt(q, off)
	}
	return h.Handle.WriteAt(p, off)
}

func (h *corruptHandle) ReadAt(p []byte, off int64) (int, error) {
	n, err := h.Handle.ReadAt(p, off)
	if n > 0 && h.b.fire("read", len(p)) {
		p[n/2] ^= 0x01
	}
	return n, err
}

func (h *corruptHandle) Size() (int64, error) {
	size, err := h.Handle.Size()
	if err == nil && h.b.fire("size", 0) {
		size++
	}
	return size, err
}

var tiny = params{
	ckptSteps: 2, ckptFileMiB: 2,
	mixBlocks: 512, mixDepth: 2, mixOps: 200,
	spillBlocks: 16, memberOpCost: 100 * time.Microsecond,
	ckptTraced: 2, mixTraced: 2, spillTraced: 2,
}

// TestVerifyCatchesCorruption runs each workload clean, and then with one
// byte corrupted below the server at each check the workload makes. The
// clean runs must pass and every corrupted run must fail verification at
// the check it targets. smallop-mix rewrites blocks at random, so a
// corrupted write may be overwritten before it is read; its cases corrupt
// a read or a size instead: a 4 KiB read is a timed-phase read checked
// against the block's latest version, a larger one belongs to the final
// readback, and a size answers a Stat.
func TestVerifyCatchesCorruption(t *testing.T) {
	nth := func(k int64) func(int64, int) bool { return func(n int64, _ int) bool { return n == k } }
	cases := []struct {
		workload, name, op string
		hit                func(n int64, size int) bool
		want               string // in the VERIFY FAILED line
	}{
		{"ckpt-stream", "clean", "", nil, ""},
		{"ckpt-stream", "write", "write", nth(3), "content mismatch at ckpt/"},
		{"smallop-mix", "clean", "", nil, ""},
		{"smallop-mix", "timed read", "read", func(_ int64, size int) bool { return size == smallOp }, "content mismatch at mix/"},
		{"smallop-mix", "readback", "read", func(_ int64, size int) bool { return size > smallOp }, "content mismatch at readback mix/"},
		{"smallop-mix", "stat", "size", nth(1), "stat mix/"},
		{"spill-stripe", "clean", "", nil, ""},
		{"spill-stripe", "write", "write", nth(3), "content mismatch at shared/"},
	}
	for _, tc := range cases {
		t.Run(tc.workload+"/"+tc.name, func(t *testing.T) {
			w, ok := findWorkload(tc.workload)
			if !ok {
				t.Fatalf("no workload %s", tc.workload)
			}
			p := tiny
			var cb *corruptBackend
			if tc.op != "" {
				cb = &corruptBackend{op: tc.op, hit: tc.hit}
				p.wrap = func(b core.Backend) core.Backend { cb.Backend = b; return cb }
			}
			var out bytes.Buffer
			res, err := run(context.Background(), w, p, 7, time.Millisecond, false, t.TempDir(), &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d ops failed:\n%s", res.Failed, out.String())
			}
			if cb == nil {
				if !res.Correct {
					t.Fatalf("clean run failed verification:\n%s", out.String())
				}
				return
			}
			if !cb.done.Load() {
				t.Fatalf("no %s call was corrupted", tc.op)
			}
			if res.Correct {
				t.Fatalf("corrupted run passed verification:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "VERIFY FAILED: "+tc.want) {
				t.Errorf("corrupted run did not report %q:\n%s", tc.want, out.String())
			}
		})
	}
}

// TestTracedRunLinksLayers checks that a traced run emits every per-layer
// metric and that spans of the workload's layers find their parents.
func TestTracedRunLinksLayers(t *testing.T) {
	w, _ := findWorkload("spill-stripe")
	var out bytes.Buffer
	res, err := run(context.Background(), w, tiny, 3, time.Millisecond, true, t.TempDir(), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run failed:\n%s", out.String())
	}
	// The traced run emits exactly the per-layer metrics BENCHMARK.json
	// declares, with their units.
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range bench.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(bench.PerLayer) {
		t.Errorf("traced run emits %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(bench.PerLayer))
	}
	if v := res.Metrics["stripe.member_writes_per_op"].Value; v < 1.9 || v > 2.1 {
		t.Errorf("stripe.member_writes_per_op = %v, want 2 (R=2, stripe-aligned writes)", v)
	}
}

// TestWriteRates pins the write_mib_s samples: one per epoch without
// slicing, and per slice of acknowledged bytes with it, each slice timed
// from the previous slice's last ack and the remainder joining the last.
func TestWriteRates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	streams := func() []*stream {
		// Two streams, 1 MiB writes acked every 10 ms, interleaved: 10 MiB
		// in 100 ms, except that ack 7 (at 70 ms) arrives at 160 ms.
		a, b := &stream{firstWrite: t0}, &stream{firstWrite: ms(5)}
		for i := 1; i <= 10; i++ {
			at := ms(10 * i)
			if i == 7 {
				at = ms(160)
			}
			s := a
			if i%2 == 0 {
				s = b
			}
			s.acks = append(s.acks, ack{at: at, n: mib})
		}
		return []*stream{a, b}
	}
	for _, tc := range []struct {
		slice int64
		want  []float64
	}{
		{0, []float64{10 / 0.160}},
		// Acks in order: 10..60, 80, 90, 100, 160 ms. Slices of 4 MiB:
		// [10..40] from 0 ms, then the remaining 6 MiB form one slice
		// (two full slices would leave less than 4 MiB for the last).
		{4 * mib, []float64{4 / 0.040, 6 / 0.120}},
		{2 * mib, []float64{2 / 0.020, 2 / 0.020, 2 / 0.020, 2 / 0.030, 2 / 0.070}},
	} {
		got := writeRates(streams(), tc.slice)
		if len(got) != len(tc.want) {
			t.Fatalf("slice %d: %d samples %v, want %v", tc.slice, len(got), got, tc.want)
		}
		for i := range got {
			if d := got[i] - tc.want[i]; d > 1e-9 || d < -1e-9 {
				t.Errorf("slice %d: sample %d = %v, want %v", tc.slice, i, got[i], tc.want[i])
			}
		}
	}
}
