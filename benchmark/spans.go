package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"mzqos/internal/engine"
)

// Span kinds: one per layer boundary the benchmark calls across. A span's
// parent is implied by its kind (see spanParent) and the round they share,
// which is the identifier that ties one round's spans together.
const (
	spanRound         uint8 = iota // driver: one round's arrivals + Step
	spanServerOpen                 // server.Server.Open
	spanServerStep                 // server.Server.Step
	spanHistorySample              // history.Store.Sample, called right after Step
	spanClusterOpen                // cluster.Coordinator.Open
	spanClusterStep                // cluster.Coordinator.Step
	spanShardOpen                  // a shard's Open under Coordinator.Open
	spanShardStep                  // a shard's Step under Coordinator.Step
	spanShardExport                // a shard's ExportStream under Coordinator.Step (migration)
	spanShardImport                // a shard's ImportStream under Coordinator.Step (migration)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"round", "server.open", "server.step", "history.sample", "cluster.open", "cluster.step",
	"server.open", "server.step", "server.export", "server.import",
}

var spanParent = [numSpanKinds]string{
	"", "round", "round", "round", "round", "round",
	"cluster.open", "cluster.step", "cluster.step", "cluster.step",
}

// span is one timed call. start is nanoseconds since the recorder's base.
type span struct {
	start int64
	dur   int64
	round int32
	kind  uint8
	shard int8 // -1 for the driver's own spans
}

// spanRec is an in-memory span buffer with a single writer. The driver
// goroutine owns the root recorder; each shard decorator owns a child that
// shares the base clock and the current-round cell, so shard goroutines
// append without locks and every span carries the round that caused it.
type spanRec struct {
	base  time.Time
	round *int32 // set by the driver before each call into the engines
	buf   []span
	kids  []*spanRec
}

func newSpanRec(capacity int) *spanRec {
	return &spanRec{base: time.Now(), round: new(int32), buf: make([]span, 0, capacity)}
}

// child returns a recorder for another single writer (one shard).
func (r *spanRec) child() *spanRec {
	c := &spanRec{base: r.base, round: r.round}
	r.kids = append(r.kids, c)
	return c
}

func (r *spanRec) now() int64 { return int64(time.Since(r.base)) }

func (r *spanRec) add(kind uint8, shard int8, start int64) {
	r.buf = append(r.buf, span{start: start, dur: r.now() - start, round: *r.round, kind: kind, shard: shard})
}

// reset drops everything recorded so far (the warm-up's spans) and
// pre-sizes the buffers for the measured phase.
func (r *spanRec) reset(capacity int) {
	if cap(r.buf) < capacity {
		r.buf = make([]span, 0, capacity)
	}
	r.buf = r.buf[:0]
	for _, k := range r.kids {
		k.reset(capacity / 2)
	}
}

// timedEngine is the benchmark's engine.Engine decorator: it forwards every
// call to the wrapped shard and records a span around the four the
// coordinator makes on the round path. Defined here so the traced run needs
// no change inside the program.
type timedEngine struct {
	engine.Engine
	rec   *spanRec
	shard int8
}

var (
	_ engine.Engine            = (*timedEngine)(nil)
	_ engine.TightnessReporter = (*timedEngine)(nil)
)

func (t *timedEngine) Open(name string) (engine.StreamID, int, error) {
	s := t.rec.now()
	id, delay, err := t.Engine.Open(name)
	t.rec.add(spanShardOpen, t.shard, s)
	return id, delay, err
}

func (t *timedEngine) Step() engine.RoundReport {
	s := t.rec.now()
	rep := t.Engine.Step()
	t.rec.add(spanShardStep, t.shard, s)
	return rep
}

func (t *timedEngine) ExportStream(id engine.StreamID) (engine.StreamState, error) {
	s := t.rec.now()
	st, err := t.Engine.ExportStream(id)
	t.rec.add(spanShardExport, t.shard, s)
	return st, err
}

func (t *timedEngine) ImportStream(state engine.StreamState) (engine.StreamID, int, error) {
	s := t.rec.now()
	id, delay, err := t.Engine.ImportStream(state)
	t.rec.add(spanShardImport, t.shard, s)
	return id, delay, err
}

// BoundTightness forwards the optional capability the coordinator's
// tightness roll-up type-asserts for; without it a wrapped shard would
// silently drop out of Coordinator.TightnessReport.
func (t *timedEngine) BoundTightness() (engine.TightnessReport, error) {
	tr, ok := t.Engine.(engine.TightnessReporter)
	if !ok {
		return engine.TightnessReport{}, fmt.Errorf("benchmark: shard %d reports no tightness", t.shard)
	}
	return tr.BoundTightness()
}

// unionNs returns the total length covered by the given [start, end)
// intervals, which it sorts in place.
func unionNs(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// clusterStepShape is the fan-out accounting of the coordinator's Step
// spans: per span its duration, the summed child durations, and the part of
// the span its children cover (their union). Self time is span − union.
type clusterStepShape struct {
	span, childSum, union []int64
}

// clusterShape pairs every cluster.step span with the shard spans recorded
// while it ran. Each shard buffer is in time order, so one cursor per shard
// walks them alongside the coordinator's spans.
func clusterShape(root *spanRec) clusterStepShape {
	var sh clusterStepShape
	cursors := make([]int, len(root.kids))
	var iv [][2]int64
	for _, s := range root.buf {
		if s.kind != spanClusterStep {
			continue
		}
		end := s.start + s.dur
		iv = iv[:0]
		var sum int64
		for k, kid := range root.kids {
			i := cursors[k]
			for i < len(kid.buf) && kid.buf[i].start < end {
				c := kid.buf[i]
				if c.start >= s.start && c.kind != spanShardOpen {
					iv = append(iv, [2]int64{c.start, c.start + c.dur})
					sum += c.dur
				}
				i++
			}
			cursors[k] = i
		}
		sh.span = append(sh.span, s.dur)
		sh.childSum = append(sh.childSum, sum)
		sh.union = append(sh.union, unionNs(iv))
	}
	return sh
}

// maxSpanRows caps the span file; the in-memory analysis always sees every
// span, and the header says how many rounds the file holds.
const maxSpanRows = 250000

// writeSpans writes the recorded spans as CSV: a comment header, then one
// row per span, the driver's spans first and then each shard's. A run with
// more than maxSpanRows spans is cut at a round boundary, so the rounds the
// file holds are complete.
func writeSpans(path string, root *spanRec, workload string, seed uint64) error {
	total := len(root.buf)
	for _, k := range root.kids {
		total += len(k.buf)
	}
	first, last := int32(0), int32(-1)
	if len(root.buf) > 0 {
		first, last = root.buf[0].round, root.buf[len(root.buf)-1].round
	}
	cut := last + 1 // first round left out
	if total > maxSpanRows {
		cut = first + int32(int64(last-first+1)*maxSpanRows/int64(total))
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# workload=%s seed=%d spans=%d rounds=%d-%d written_rounds=%d-%d\n", workload, seed, total, first, last, first, cut-1)
	fmt.Fprintln(w, "name,parent,shard,round,start_ns,dur_ns")
	for _, rec := range append([]*spanRec{root}, root.kids...) {
		for _, s := range rec.buf {
			if s.round >= cut {
				break
			}
			fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", spanNames[s.kind], spanParent[s.kind], s.shard, s.round, s.start, s.dur)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
