package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"supercharged/internal/telemetry"
)

// span is one recorded call into a layer: name is the layer, parent the
// call that encloses it (0 = none), op the per-operation id shared by the
// spans of one update, batch or event.
type span struct {
	name       string
	id, parent uint64
	op         uint64
	start, end time.Time
}

// maxSpans bounds the spans kept for the trace file, so a long run cannot
// grow the benchmark's own heap without limit. The per-layer times count
// every span, kept or not.
const maxSpans = 250_000

// tracer records spans while a run is traced. A nil *tracer is off:
// every method is a no-op, and ids come back 0.
//
// Only every other repetition of a run is traced (see rep), so that one
// run measures both sides of the tracing overhead.
type tracer struct {
	ids    atomic.Uint64
	paused atomic.Bool // set-up phases are not traced
	off    atomic.Bool // an untraced repetition

	mu      sync.Mutex
	spans   []span // the first maxSpans spans, for the trace file
	dropped int
	layers  map[string]layerTimes
	covered map[uint64]time.Duration // time the recorded children of a parent id took
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{
		spans:   make([]span, 0, 1<<16),
		layers:  make(map[string]layerTimes),
		covered: make(map[uint64]time.Duration),
	}
}

// id reserves a span id before the span ends, so children recorded
// first can name it as their parent.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// layerTimes is each layer's total and self time (seconds) and span
// count.
type layerTimes struct {
	total, self float64
	count       int
}

// add records a finished span under a reserved id (0 = allocate one) and
// folds it into its layer's times at once. A span's self time is its
// duration minus its children's. Children are sequential calls made
// inside their parent, so they end before it and never overlap.
func (t *tracer) add(name string, id, parent, op uint64, start, end time.Time) {
	if t == nil || t.paused.Load() || t.off.Load() {
		return
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	d := end.Sub(start)
	t.mu.Lock()
	self := d - t.covered[id]
	delete(t.covered, id)
	if parent != 0 {
		t.covered[parent] += d
	}
	lt := t.layers[name]
	lt.total += d.Seconds()
	lt.self += self.Seconds()
	lt.count++
	t.layers[name] = lt
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: op, start: start, end: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) pause() {
	if t != nil {
		t.paused.Store(true)
	}
}

func (t *tracer) resume() {
	if t != nil {
		t.paused.Store(false)
	}
}

// rep starts repetition i (a round, episode or event) of a run and
// reports whether it is traced: the even ones are, the odd ones are not.
func (t *tracer) rep(i int) bool {
	if t == nil {
		return false
	}
	t.off.Store(i%2 == 1)
	return i%2 == 0
}

// selfTimes returns each layer's times over every traced span.
func (t *tracer) selfTimes() map[string]layerTimes {
	out := make(map[string]layerTimes)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for n, lt := range t.layers {
		out[n] = lt
	}
	return out
}

// writeChrome exports the spans through telemetry.Trace, one trace
// thread per layer, so the file opens in Perfetto like the lab's traces.
// Span ids, parents and op ids travel in the Kind argument.
func (t *tracer) writeChrome(path string, epoch time.Time) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	tr := telemetry.NewTrace()
	pid := tr.Process("perfbench")
	tids := make(map[string]int)
	for _, s := range spans {
		tid, ok := tids[s.name]
		if !ok {
			tid = len(tids) + 1
			tids[s.name] = tid
			tr.Thread(pid, tid, s.name)
		}
		tr.Add(telemetry.Span{
			Name:  s.name,
			Cat:   "layer",
			PID:   pid,
			TID:   tid,
			Start: s.start.Sub(epoch),
			Dur:   s.end.Sub(s.start),
			Kind:  fmt.Sprintf("id=%d parent=%d op=%d", s.id, s.parent, s.op),
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) len() (kept, dropped int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}
