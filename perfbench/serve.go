package main

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/daemon"
	"supercharged/internal/feed"
)

// peerMeta is upstream peer i as `supercharged serve` numbers it: peer 0
// carries weight 100, so it is every prefix's best path while it is up.
func peerMeta(i int) bgp.PeerMeta {
	a := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
	m := bgp.PeerMeta{Addr: a, AS: uint32(65001 + i), ID: a}
	if i == 0 {
		m.Weight = 100
	}
	return m
}

// code maps a programmed next-hop to a small peer code: 0 = no route,
// i+1 = peer i, 255 = anything else.
func code(nh netip.Addr) uint8 {
	if !nh.IsValid() {
		return 0
	}
	b := nh.As4()
	if b[0] == 203 && b[1] == 0 && b[2] == 113 && b[3] >= 1 && b[3] <= 16 {
		return b[3]
	}
	return 255
}

const primary = 1 // code of peer 0

// daemonConfig is the zero-value configuration `serve` runs, plus the one
// setting the failover events need: a reconnect policy, so peer 0's
// session comes back after it fails. Its 1 ms backoff never shows in a
// timing, because the benchmark gates the re-announcement itself.
func daemonConfig(sources []daemon.PeerSource, routers []daemon.RouterSink, n int) daemon.Config {
	return daemon.Config{
		Sources:  sources,
		Routers:  routers,
		SizeHint: n,
		Reconnect: daemon.ReconnectPolicy{
			MaxAttempts: 1 << 30,
			Backoff:     time.Millisecond,
			BackoffMax:  time.Millisecond,
		},
	}
}

// serveEnv is one daemon under test with the benchmark's own sources and
// observing sinks around it.
type serveEnv struct {
	cfg      config
	tr       *tracer
	table    *feed.Table
	prefixes []netip.Prefix
	index    map[netip.Prefix]int32
	sources  []*peerSource
	sinks    []*observedSink
	d        *daemon.Daemon
	ops      atomic.Uint64 // per-operation ids for spans

	replayed chan int // peer index, once per finished table replay

	feedNS, ingestNS, ingestRoutes atomic.Int64

	// probes time single updates from their due time to the last router
	// applying them: one slot per table prefix, so the sinks look a
	// prefix up without a lock and never hold up the ingest path that
	// registers them. pmu guards the probes' own bookkeeping.
	probes      []atomic.Pointer[probe]
	pmu         sync.Mutex
	outstanding atomic.Int32
	probing     atomic.Bool // peer 0's replays register probes
	failing     atomic.Bool // a failover is in progress
	registered  atomic.Int64
	lat         [3]series // by probe kind
	dwell       series
	lag         series // open-loop generator lateness, ms
}

// Probe kinds.
const (
	probeWithdraw = iota // the prefix must leave the primary for a live peer
	probeAnnounce        // the prefix must return to the primary
	probeLoad            // closed-loop replay of the primary's table
)

type probe struct {
	due   time.Time
	want  uint8 // wanted code; 0 = any live code other than the primary
	kind  int
	seen  uint8 // routers that applied it
	dwelt bool
	op    uint64 // shared with the update's ingest span
}

// newServeEnv builds the inputs, sources and sinks (not the daemon).
func newServeEnv(cfg config, tr *tracer) *serveEnv {
	e := &serveEnv{
		cfg:      cfg,
		tr:       tr,
		table:    feed.Generate(feed.Config{N: cfg.prefixes, Seed: cfg.seed}),
		replayed: make(chan int, cfg.peers), // at most one unconsumed replay per peer
	}
	e.prefixes = e.table.Prefixes()
	e.probes = make([]atomic.Pointer[probe], len(e.prefixes))
	e.index = make(map[netip.Prefix]int32, len(e.prefixes))
	for i, p := range e.prefixes {
		e.index[p] = int32(i)
	}
	for i := 0; i < cfg.peers; i++ {
		s := &peerSource{
			TableReplay: &daemon.TableReplay{PeerName: fmt.Sprintf("peer%d", i), Meta: peerMeta(i), Table: e.table},
			env:         e,
			i:           i,
		}
		if i == 0 {
			s.ctl = &sessionCtl{
				fail:        make(chan struct{}),
				reconnected: make(chan struct{}),
				gate:        make(chan struct{}),
				churn:       make(chan []churnOp),
				churnDone:   make(chan struct{}),
			}
		}
		e.sources = append(e.sources, s)
	}
	for r := 0; r < cfg.routers; r++ {
		e.sinks = append(e.sinks, &observedSink{
			fib:    daemon.NewFIBSink(fmt.Sprintf("edge%d", r)),
			env:    e,
			r:      r,
			mirror: make([]uint8, len(e.prefixes)),
			counts: [256]int{0: len(e.prefixes)},
		})
	}
	return e
}

// build constructs the daemon over the env's sources and sinks.
func (e *serveEnv) build() {
	srcs := make([]daemon.PeerSource, len(e.sources))
	for i, s := range e.sources {
		srcs[i] = s
	}
	sinks := make([]daemon.RouterSink, len(e.sinks))
	for i, s := range e.sinks {
		sinks[i] = s
		if e.cfg.wrapSink != nil {
			sinks[i] = e.cfg.wrapSink(e, i, s)
		}
	}
	e.d = daemon.New(daemonConfig(srcs, sinks, len(e.prefixes)))
}

// awaitReplays waits until n table replays have finished emitting.
func (e *serveEnv) awaitReplays(n int, timeout time.Duration) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for ; n > 0; n-- {
		select {
		case <-e.replayed:
		case <-t.C:
			return false
		}
	}
	return true
}

// sessionCtl scripts peer 0's session: fail ends it with a session
// error; after the daemon reconnects, reconnected fires and the
// re-announcement waits for gate.
type sessionCtl struct {
	fail, reconnected, gate chan struct{}
	churn                   chan []churnOp // serve-churn: schedules for the open-loop generator
	churnDone               chan struct{}
}

// peerSource is the benchmark's PeerSource: a daemon.TableReplay whose
// emits are timed, and, for peer 0, a scripted session.
type peerSource struct {
	*daemon.TableReplay
	env  *serveEnv
	i    int
	ctl  *sessionCtl
	runs int // touched only by the daemon's ingest goroutine for this source
}

func (s *peerSource) Run(ctx context.Context, emit func(*bgp.Update) error) error {
	s.runs++
	if s.runs > 1 {
		select {
		case s.ctl.reconnected <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		select {
		case <-s.ctl.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := s.env.replay(ctx, s, emit); err != nil {
		return err
	}
	select {
	case s.env.replayed <- s.i:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.ctl == nil {
		return nil // clean end of feed: the session stays up
	}
	for {
		select {
		case <-s.ctl.fail:
			return daemon.ErrSessionFailed
		case ops := <-s.ctl.churn:
			if err := s.env.generate(ctx, s, ops, emit); err != nil {
				return err
			}
			select {
			case s.ctl.churnDone <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// replay streams the source's table, timing each emit (the daemon's
// ingest) apart from the rendering around it (the feed).
func (e *serveEnv) replay(ctx context.Context, s *peerSource, emit func(*bgp.Update) error) error {
	runID := e.tr.id()
	probing := s.i == 0 && e.probing.Load()
	start := time.Now()
	var inEmit time.Duration
	var routes int64
	err := s.TableReplay.Run(ctx, func(u *bgp.Update) error {
		d, err := e.timedEmit(emit, u, runID, probing, probeLoad, time.Time{})
		inEmit += d
		routes += int64(len(u.NLRI) + len(u.Withdrawn))
		return err
	})
	end := time.Now()
	e.tr.add("feed", runID, 0, uint64(s.i), start, end)
	e.feedNS.Add(int64(end.Sub(start) - inEmit))
	e.ingestNS.Add(int64(inEmit))
	e.ingestRoutes.Add(routes)
	return err
}

// timedEmit hands one UPDATE to the daemon. With probe set, the update's
// first prefix is tracked from due (zero = now) to the last router.
func (e *serveEnv) timedEmit(emit func(*bgp.Update) error, u *bgp.Update, parent uint64, probe bool, kind int, due time.Time) (time.Duration, error) {
	op := e.ops.Add(1)
	t0 := time.Now()
	if due.IsZero() {
		due = t0
	}
	if probe {
		var p netip.Prefix
		want := uint8(primary)
		if len(u.NLRI) > 0 {
			p = u.NLRI[0]
		} else {
			p, want = u.Withdrawn[0], 0
		}
		e.addProbe(p, want, kind, due, op)
	}
	err := emit(u)
	t1 := time.Now()
	e.tr.add("daemon.ingest", 0, parent, op, t0, t1)
	return t1.Sub(t0), err
}

// addProbe registers a probe unless the prefix already has one in
// flight. Only peer 0's ingest goroutine registers probes.
func (e *serveEnv) addProbe(p netip.Prefix, want uint8, kind int, due time.Time, op uint64) {
	slot := &e.probes[e.index[p]]
	if slot.Load() == nil {
		slot.Store(&probe{due: due, want: want, kind: kind, op: op})
		e.registered.Add(1)
		e.outstanding.Add(1)
	}
}

// awaitProbes waits until every registered probe has reached every
// router.
func (e *serveEnv) awaitProbes(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for e.outstanding.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// observedSink is the benchmark's RouterSink: a daemon.FIBSink whose
// Apply is timed, plus a per-prefix mirror of what it programmed that
// goals and probes are evaluated against.
type observedSink struct {
	fib *daemon.FIBSink
	env *serveEnv
	r   int

	mu     sync.Mutex // guards everything below against goal arming
	mirror []uint8    // per-prefix programmed code
	counts [256]int   // prefixes per code
	goals  []*goal

	applyNS          time.Duration
	batches, changes int
	noops            int
	waits, sizes     series
}

func (s *observedSink) Name() string { return s.fib.Name() }

func (s *observedSink) Apply(b daemon.Batch) error {
	start := time.Now()
	err := s.fib.Apply(b)
	end := time.Now()
	s.env.tr.add("daemon.queue", 0, 0, b.Seq, b.At, start)
	s.env.tr.add("daemon.sink", 0, 0, b.Seq, start, end)
	s.observe(b, start, end)
	return err
}

func (s *observedSink) observe(b daemon.Batch, start, end time.Time) {
	e := s.env
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyNS += end.Sub(start)
	s.batches++
	s.changes += len(b.Changes)
	s.waits.add(ms(start.Sub(b.At)))
	s.sizes.add(float64(len(b.Changes)))
	probing := e.outstanding.Load() > 0
	for _, ch := range b.Changes {
		idx, ok := e.index[ch.Prefix]
		if !ok {
			continue // not in the table: the final snapshot check catches it
		}
		c := code(ch.NextHop)
		old := s.mirror[idx]
		if old == c {
			s.noops++
			continue
		}
		s.mirror[idx] = c
		s.counts[old]--
		s.counts[c]++
		for _, g := range s.goals {
			g.change(s.r, idx, old, c, end)
		}
		if probing {
			if p := e.probes[idx].Load(); p != nil && p.matches(c) {
				e.hit(p, idx, s.r, b.At, end)
			}
		}
	}
	kept := s.goals[:0]
	for _, g := range s.goals {
		if g.satisfied(s) {
			g.finish(s.r, end)
		} else {
			kept = append(kept, g)
		}
	}
	s.goals = kept
}

func (p *probe) matches(c uint8) bool {
	if p.want == 0 {
		return c != 0 && c != primary && c != 255
	}
	return c == p.want
}

// hit records one router applying a probed update.
func (e *serveEnv) hit(p *probe, idx int32, r int, at, end time.Time) {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if e.probes[idx].Load() != p {
		return // completed by the other routers since this sink loaded it
	}
	if !p.dwelt {
		p.dwelt = true
		if at.After(p.due) {
			e.dwell.add(ms(at.Sub(p.due)))
		}
		e.tr.add("daemon.batch", 0, 0, p.op, p.due, at)
	}
	p.seen |= 1 << r
	if int(p.seen) == 1<<len(e.sinks)-1 {
		e.lat[p.kind].add(ms(end.Sub(p.due)))
		e.probes[idx].Store(nil)
		e.outstanding.Add(-1)
	}
}

// goal is a condition on every router's programmed table: match (each
// prefix on want[idx]) or avoid (no prefix on avoid, every prefix
// present). It completes when the last router satisfies it.
type goal struct {
	want  []uint8
	avoid uint8
	t0    time.Time

	left    atomic.Int32
	done    chan struct{}
	at      []time.Time
	matches []int
	// perPrefix, when set, records when each prefix first satisfied the
	// goal at each router (ns after t0; 0 = not yet).
	perPrefix [][]int64
}

// arm starts evaluating g on every router, from its current state.
func (e *serveEnv) arm(g *goal, perPrefix bool) {
	n := len(e.sinks)
	g.done = make(chan struct{})
	g.at = make([]time.Time, n)
	g.matches = make([]int, n)
	g.left.Store(int32(n))
	if perPrefix {
		g.perPrefix = make([][]int64, n)
	}
	for _, s := range e.sinks {
		s.mu.Lock()
		if perPrefix {
			g.perPrefix[s.r] = make([]int64, len(s.mirror))
		}
		if g.want != nil {
			for i, c := range s.mirror {
				if c == g.want[i] {
					g.matches[s.r]++
				}
			}
		}
		if g.satisfied(s) {
			g.finish(s.r, time.Now())
		} else {
			s.goals = append(s.goals, g)
		}
		s.mu.Unlock()
	}
}

func (g *goal) change(r int, idx int32, old, c uint8, at time.Time) {
	hit := false
	if g.want != nil {
		w := g.want[idx]
		if old == w {
			g.matches[r]--
		}
		if c == w {
			g.matches[r]++
			hit = true
		}
	} else {
		hit = old == g.avoid && c != g.avoid && c != 0
	}
	if hit && g.perPrefix != nil && g.perPrefix[r][idx] == 0 {
		g.perPrefix[r][idx] = int64(at.Sub(g.t0)) | 1
	}
}

func (g *goal) satisfied(s *observedSink) bool {
	if g.want != nil {
		return g.matches[s.r] == len(s.mirror)
	}
	return s.counts[g.avoid] == 0 && s.counts[0] == 0
}

func (g *goal) finish(r int, at time.Time) {
	g.at[r] = at
	if g.left.Add(-1) == 0 {
		close(g.done)
	}
}

// wait blocks until every router satisfies g and returns the time from
// g.t0 to the last one, or false on timeout.
func (g *goal) wait(timeout time.Duration) (time.Duration, bool) {
	select {
	case <-g.done:
	default:
		select {
		case <-g.done:
		case <-time.After(timeout):
			return 0, false
		}
	}
	var last time.Time
	for _, t := range g.at {
		if t.After(last) {
			last = t
		}
	}
	return last.Sub(g.t0), true
}

// prefixTimes appends, per prefix that satisfied g at every router, the
// time (ms) the last router got there. Read only after wait.
func (g *goal) prefixTimes(out *series) {
	for idx := range g.perPrefix[0] {
		var worst int64
		for r := range g.perPrefix {
			t := g.perPrefix[r][idx]
			if t == 0 {
				worst = -1
				break
			}
			if t > worst {
				worst = t
			}
		}
		if worst > 0 {
			out.add(ms(time.Duration(worst)))
		}
	}
}

// allPrimary is the wanted table while peer 0 is up.
func (e *serveEnv) allPrimary() []uint8 {
	w := make([]uint8, len(e.prefixes))
	for i := range w {
		w[i] = primary
	}
	return w
}

// backupOracle computes, with a sequential bgp.RIB, every prefix's best
// path among peers 1.. — the table the routers must hold while peer 0 is
// down.
func backupOracle(table *feed.Table, peers int) []uint8 {
	rib := bgp.NewRIBSized(table.Len())
	for i := 1; i < peers; i++ {
		m := peerMeta(i)
		_ = table.StreamUpdates(m.AS, m.Addr, bgp.Codec{}, func(u *bgp.Update) error {
			rib.Update(m, u)
			return nil
		})
	}
	want := make([]uint8, table.Len())
	for i, p := range table.Prefixes() {
		if b := rib.Best(p); b != nil {
			want[i] = code(b.NextHop())
		}
	}
	return want
}

// failover fails peer 0's session and waits for recovery (no router
// keeps a prefix on the failed peer) and reconvergence (every router
// holds the oracle's backup table).
//
// Every failover and every failback starts from a collected heap, taken
// outside the timed and accounted window. A failure strikes at an
// arbitrary moment, and a collection that happens to overlap a few
// events would otherwise decide a run's median; the collector's cost
// still shows in the loads, in serve-churn and in the runtime metrics.
func (e *serveEnv) failover(rep *report, rt *rtAccount, backup []uint8, perPrefix bool) (rec, recon *goal, ok bool) {
	runtime.GC()
	rec = &goal{avoid: primary}
	recon = &goal{want: backup}
	e.arm(rec, perPrefix)
	e.arm(recon, perPrefix)
	rt.begin()
	t0 := time.Now()
	rec.t0, recon.t0 = t0, t0
	e.failing.Store(true)
	ok = e.send(rep, e.sources[0].ctl.fail, "failover")
	if ok {
		_, ok1 := rec.wait(e.cfg.patience())
		_, ok2 := recon.wait(e.cfg.patience())
		rep.check(ok1, "failover: a router kept prefixes on the failed peer")
		rep.check(ok2, "failover: routers did not reach the backup table")
		ok = ok1 && ok2
	}
	e.failing.Store(false)
	rt.end()
	return rec, recon, ok
}

// send hands peer 0's scripted session a command; a session that is not
// there to take it fails the check instead of hanging the run.
func (e *serveEnv) send(rep *report, ch chan struct{}, what string) bool {
	select {
	case ch <- struct{}{}:
		return true
	case <-time.After(e.cfg.patience()):
		rep.check(false, "%s: peer 0's session did not take the command", what)
		return false
	}
}

// failback lets peer 0's reconnected session re-announce its table and
// waits until every router is back on the primary.
func (e *serveEnv) failback(rep *report, rt *rtAccount, perPrefix, probing bool) (*goal, bool) {
	select {
	case <-e.sources[0].ctl.reconnected:
	case <-time.After(e.cfg.patience()):
		rep.check(false, "failback: peer 0 never reconnected")
		return nil, false
	}
	runtime.GC() // see failover
	g := &goal{want: e.allPrimary()}
	e.arm(g, perPrefix)
	e.probing.Store(probing)
	rt.begin()
	g.t0 = time.Now()
	if !e.send(rep, e.sources[0].ctl.gate, "failback") {
		rt.end()
		e.probing.Store(false)
		return g, false
	}
	_, ok := g.wait(e.cfg.patience())
	replayed := e.awaitReplays(1, e.cfg.patience())
	rt.end()
	rep.check(ok, "failback: routers did not return to the primary")
	rep.check(replayed, "failback: peer 0 replay did not finish")
	e.probing.Store(false)
	return g, ok
}

// drainAndVerify drains the daemon and checks every router against the
// RIB's best paths, gap-free, and that every probe arrived.
func (e *serveEnv) drainAndVerify(rep *report) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*e.cfg.patience())
	defer cancel()
	rep.check(e.d.Drain(ctx) == nil, "drain failed")
	snap := e.d.RIB().Snapshot(nil)
	entries := make([]daemon.FIBEntry, 0, len(snap))
	for _, ch := range snap {
		if ch.NextHop.IsValid() {
			entries = append(entries, daemon.FIBEntry{Prefix: ch.Prefix, NextHop: ch.NextHop})
		}
	}
	daemon.SortFIBEntries(entries)
	want := daemon.HashEntries(entries)
	for _, s := range e.sinks {
		rep.check(daemon.HashEntries(s.fib.Entries()) == want, "router %s: FIB differs from the RIB best paths", s.Name())
		rep.check(s.fib.Gaps() == 0 && s.fib.Unhealed() == 0, "router %s: sequence gaps", s.Name())
	}
	lost := 0
	for i := range e.probes {
		if e.probes[i].Load() != nil {
			rep.check(false, "update for %s never reached every router", e.prefixes[i])
			lost++
		}
	}
	rep.attempted += int(e.registered.Load()) - lost
}

// resetLayers zeroes the daemon-side layer counters once a preload
// (set-up) is done, so the per-layer metrics describe the measured
// phase. Feed rendering keeps counting: set-up is where it costs.
func (e *serveEnv) resetLayers() {
	e.ingestNS.Store(0)
	e.ingestRoutes.Store(0)
	for _, s := range e.sinks {
		s.mu.Lock()
		s.applyNS, s.batches, s.changes, s.noops = 0, 0, 0, 0
		s.waits, s.sizes = nil, nil
		s.mu.Unlock()
	}
	e.pmu.Lock()
	e.dwell = nil
	e.pmu.Unlock()
}

// serveLayers accumulates the daemon-side per-layer counters of one or
// more envs.
type serveLayers struct {
	feedNS, ingestNS, ingestRoutes int64
	applyNS                        time.Duration
	routers                        int
	batches, changes, noops        int
	waits, sizes, dwell            series
}

// add folds a drained env's counters in; router 0 stands for the
// per-router ratios, every router for the busy time.
func (l *serveLayers) add(e *serveEnv) {
	l.feedNS += e.feedNS.Load()
	l.ingestNS += e.ingestNS.Load()
	l.ingestRoutes += e.ingestRoutes.Load()
	for _, s := range e.sinks {
		l.applyNS += s.applyNS
		l.batches += s.batches
		l.waits = append(l.waits, s.waits...)
	}
	l.routers = len(e.sinks)
	s0 := e.sinks[0]
	l.changes += s0.changes
	l.noops += s0.noops
	l.sizes = append(l.sizes, s0.sizes...)
	l.dwell = append(l.dwell, e.dwell...)
}

func (l *serveLayers) report(r *report) {
	r.layer["feed.render_s"] = time.Duration(l.feedNS).Seconds()
	r.layer["daemon.ingest.busy_s"] = time.Duration(l.ingestNS).Seconds()
	r.layer["daemon.ingest.routes"] = float64(l.ingestRoutes)
	r.layerPct("daemon.batch.dwell_p50_ms", l.dwell, 0.5)
	r.layerPct("daemon.batch.changes_p50", l.sizes, 0.5)
	r.layerPct("daemon.queue.wait_p50_ms", l.waits, 0.5)
	r.layerPct("daemon.queue.wait_p99_ms", l.waits, 0.99)
	r.layer["daemon.sink.apply_busy_s"] = l.applyNS.Seconds()
	r.layer["daemon.sink.batches"] = float64(l.batches)
	if all := l.changes; all > 0 {
		r.layer["daemon.sink.apply_ns_per_change"] = float64(l.applyNS.Nanoseconds()) / float64(all*l.routers)
		r.layer["daemon.sink.noop_change_frac"] = float64(l.noops) / float64(all)
	}
	if l.ingestRoutes > 0 {
		r.layer["daemon.sink.changes_per_route"] = float64(l.changes) / float64(l.ingestRoutes)
	}
}
