package main

import (
	"context"
	"math/rand"
	"net/netip"
	"time"

	"supercharged/internal/bgp"
)

// setupClock accumulates the set-up time of one repetition, pausing
// around the benchmark's own heap measurement.
type setupClock struct {
	start time.Time
	acc   time.Duration
}

func (c *setupClock) resume() { c.start = time.Now() }
func (c *setupClock) pause()  { c.acc += time.Since(c.start) }

// loadAll starts e's daemon and waits until every peer's table replay
// has finished and every router holds the full table on the primary.
// It returns the load throughput in announcements per second.
func loadAll(e *serveEnv, rep *report, rt *rtAccount) (float64, bool) {
	load := &goal{want: e.allPrimary()}
	e.arm(load, false)
	rt.begin()
	load.t0 = time.Now()
	e.d.Start(context.Background())
	_, ok1 := load.wait(e.cfg.patience())
	ok2 := e.awaitReplays(len(e.sources), e.cfg.patience())
	elapsed := time.Since(load.t0)
	rt.end()
	rep.check(ok1 && ok2, "load: routers never held the full table on the primary")
	return float64(len(e.sources)*len(e.prefixes)) / elapsed.Seconds(), ok1 && ok2
}

// serveRound is one set-up repetition: a fresh env and daemon, loaded.
// preloaded decides whether the load counts as set-up (serve-churn,
// serve-failover) or as the measured phase (serve-load).
type serveRound struct {
	e                    *serveEnv
	setup, rate, heapPer float64
	ok                   bool
}

func newRound(cfg config, tr *tracer, rep *report, rt *rtAccount, probing, preloaded bool) serveRound {
	var sc setupClock
	sc.resume()
	e := newServeEnv(cfg, tr)
	e.probing.Store(probing)
	sc.pause()
	heap0 := liveHeap()
	sc.resume()
	e.build()
	if preloaded {
		tr.pause()
	} else {
		sc.pause()
	}
	rate, ok := loadAll(e, rep, rt)
	if preloaded {
		sc.pause()
		e.resetLayers()
		tr.resume()
	}
	e.probing.Store(false)
	heapPer := (float64(liveHeap()) - float64(heap0)) / float64(len(e.prefixes))
	return serveRound{e: e, setup: sc.acc.Seconds(), rate: rate, heapPer: heapPer, ok: ok}
}

// runServeLoad: closed-loop rounds. Each round builds a fresh daemon,
// lets every peer replay its table unpaced (routes_per_s), then fails
// and restores peer 0 over the full table, cfg.events times per run
// spread over the rounds. Each failover metric is an event's percentile
// over prefixes (when the last router moved each prefix), with the
// median over events.
func runServeLoad(cfg config, tr *tracer) *report {
	rep := newReport()
	var setups, rates, heaps series
	var rec, recon, fb []series // per event, per prefix
	var layers serveLayers
	rt := &rtAccount{}
	var backup []uint8
	perRound := (cfg.events + cfg.rounds - 1) / cfg.rounds
	start := time.Now()
	for round := 0; round < cfg.rounds || time.Since(start).Seconds() < cfg.seconds; round++ {
		traced, cpu0 := tr.rep(round), rt.cpu()
		sr := newRound(cfg, tr, rep, rt, true, false)
		e := sr.e
		setups.add(sr.setup)
		rates.add(sr.rate)
		logRound(len(setups), sr.setup, sr.rate)
		heaps.add(sr.heapPer)
		if backup == nil {
			backup = backupOracle(e.table, cfg.peers)
		}
		rep.check(e.awaitProbes(cfg.patience()), "load: sampled updates never reached every router")
		for k, ok := 0, sr.ok; ok && k < perRound; k++ {
			var g1, g2, g3 *goal
			if g1, g2, ok = e.failover(rep, rt, backup, true); ok {
				g3, ok = e.failback(rep, rt, true, false)
			}
			if ok {
				var r1, r2, r3 series
				g1.prefixTimes(&r1)
				g2.prefixTimes(&r2)
				g3.prefixTimes(&r3)
				rec, recon, fb = append(rec, r1), append(recon, r2), append(fb, r3)
			}
		}
		e.drainAndVerify(rep)
		layers.add(e)
		rep.over.add(traced, rt.cpu()-cpu0, e.ingestRoutes.Load())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["routes_per_s"] = median(rates)
	rep.e2e["heap_bytes_per_prefix"] = median(heaps)
	// Propagation is per prefix of the failovers, as in serve-failover,
	// so its median is the recovery median. The sampled load updates
	// still feed the checks and the batch dwell, but their tail is set
	// by when the collector runs under saturation: its p99 spread over
	// ten runs exceeded the bound.
	rep.pctReps("propagation_p50_ms", rec, 0.5)
	rep.pctReps("propagation_p99_ms", rec, 0.99)
	rep.pctReps("recovery_p50_ms", rec, 0.5)
	rep.pctReps("reconverge_p50_ms", recon, 0.5)
	rep.pctReps("failback_p50_ms", fb, 0.5)
	layers.report(rep)
	rep.runtimeLayer(rt, layers.ingestRoutes)
	return rep
}

// runServeFailover: episodes of a preloaded multihomed table (set-up),
// then repeated events: peer 0's session fails, the routers recover and
// reconverge on the backups, peer 0 reconnects and re-announces.
func runServeFailover(cfg config, tr *tracer) *report {
	rep := newReport()
	var setups, rates, heaps, rec, recon, fb, prop series
	var layers serveLayers
	rt := &rtAccount{}
	var backup []uint8
	start := time.Now()
	events := 0
	for ep := 0; ep < cfg.rounds; ep++ {
		traced, cpu0 := tr.rep(ep), rt.cpu()
		sr := newRound(cfg, tr, rep, nil, false, true)
		e := sr.e
		setups.add(sr.setup)
		rates.add(sr.rate)
		logRound(len(setups), sr.setup, sr.rate)
		heaps.add(sr.heapPer)
		if backup == nil {
			backup = backupOracle(e.table, cfg.peers)
		}
		// Each episode takes its share of the run and of the events.
		share := float64(ep+1) / float64(cfg.rounds)
		for ok := sr.ok; ok && (time.Since(start).Seconds() < cfg.seconds*share || float64(events) < float64(cfg.events)*share); {
			g1, g2, ok1 := e.failover(rep, rt, backup, true)
			var g3 *goal
			ok3 := false
			if ok1 {
				g3, ok3 = e.failback(rep, rt, false, true)
			}
			if ok = ok1 && ok3; ok {
				d1, _ := g1.wait(0)
				d2, _ := g2.wait(0)
				d3, _ := g3.wait(0)
				rec.add(ms(d1))
				recon.add(ms(d2))
				fb.add(ms(d3))
				rep.check(e.awaitProbes(cfg.patience()), "failback: re-announced updates never reached every router")
				g1.prefixTimes(&prop)
				events++
			}
		}
		e.drainAndVerify(rep)
		layers.add(e)
		rep.over.add(traced, rt.cpu()-cpu0, e.ingestRoutes.Load())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["routes_per_s"] = median(rates)
	rep.e2e["heap_bytes_per_prefix"] = median(heaps)
	// Propagation is per prefix of the failovers, whose withdraws the
	// daemon flushes at once. The re-announcements would be a poor
	// sample: their last partial batch waits for the batch interval, and
	// whether it holds more than 1% of an event's updates flips the p99
	// between two modes from one event to the next.
	rep.pct("propagation_p50_ms", prop, 0.5)
	rep.pct("propagation_p99_ms", prop, 0.99)
	rep.pct("recovery_p50_ms", rec, 0.5)
	rep.pct("reconverge_p50_ms", recon, 0.5)
	rep.pct("failback_p50_ms", fb, 0.5)
	layers.report(rep)
	rep.runtimeLayer(rt, layers.ingestRoutes)
	return rep
}

// churnOp is one scheduled single-prefix UPDATE of the open loop.
type churnOp struct {
	at   time.Duration // due, from the generator's start
	idx  int32         // table index of the prefix
	kind uint8
}

const (
	opWithdraw = iota // primary withdraws a prefix: it must move to a backup
	opAnnounce        // primary re-announces it: it must move back
	opRefresh         // primary repeats an unchanged announcement: no downstream change
)

// The churn mix. These are design choices, not measurements: no BGP
// update trace backs the refresh share or the flap shape, and NOTES.md
// says which metrics depend on them. They stay as they are until a real
// update trace in the repository can set them.
const (
	refreshEvery = 5           // one slot in refreshEvery is an identical refresh
	flapGap      = time.Second // from a primary withdraw to its re-announcement
)

// churnSchedule builds d of open-loop churn at rate UPDATEs/s: one slot
// in refreshEvery is an identical refresh, the rest are primary flaps,
// each withdraw re-announced flapGap later. Flaps cycle through one half
// of the table and refreshes through the other, so a refresh never
// lands on a flapping prefix.
func churnSchedule(n, rate int, d time.Duration, rng *rand.Rand) []churnOp {
	perm := rng.Perm(n)
	flaps, refreshes := perm[:n/2], perm[n/2:]
	slots := int(float64(rate) * d.Seconds())
	ops := make([]churnOp, 0, slots)
	var pending []int32 // withdrawn prefixes awaiting re-announcement, oldest first
	var pendingAt []int
	nextFlap, nextRefresh := 0, 0
	for k := 0; k < slots; k++ {
		at := time.Duration(float64(k) / float64(rate) * float64(time.Second))
		switch {
		case k%refreshEvery == refreshEvery-1:
			ops = append(ops, churnOp{at, int32(refreshes[nextRefresh%len(refreshes)]), opRefresh})
			nextRefresh++
		case len(pending) > 0 && pendingAt[0] <= k:
			ops = append(ops, churnOp{at, pending[0], opAnnounce})
			pending, pendingAt = pending[1:], pendingAt[1:]
		default:
			idx := int32(flaps[nextFlap%len(flaps)])
			nextFlap++
			ops = append(ops, churnOp{at, idx, opWithdraw})
			pending = append(pending, idx)
			pendingAt = append(pendingAt, k+int(float64(rate)*flapGap.Seconds()))
		}
	}
	return ops
}

// generate is the open-loop generator, run on peer 0's session: every
// tick (1 ms or less) it sends every update whose due time has passed,
// timing flaps from their due time and recording how late it ran.
func (e *serveEnv) generate(ctx context.Context, s *peerSource, ops []churnOp, emit func(*bgp.Update) error) error {
	meta := s.Meta
	attrs := make(map[int]*bgp.Attrs)
	runID := e.tr.id()
	start := time.Now()
	for i := 0; i < len(ops); {
		now := time.Now()
		for ; i < len(ops) && !start.Add(ops[i].at).After(now); i++ {
			op := ops[i]
			due := start.Add(op.at)
			e.lag.add(ms(time.Since(due)))
			p := e.prefixes[op.idx]
			u := &bgp.Update{}
			if op.kind == opWithdraw {
				u.Withdrawn = []netip.Prefix{p}
			} else {
				tmpl := e.table.Routes[op.idx].Template
				a := attrs[tmpl]
				if a == nil {
					a = e.table.AttrsFor(tmpl, meta.AS, meta.Addr)
					attrs[tmpl] = a
				}
				u.Attrs, u.NLRI = a, []netip.Prefix{p}
			}
			kind := probeWithdraw
			if op.kind == opAnnounce {
				kind = probeAnnounce
			}
			d, err := e.timedEmit(emit, u, runID, op.kind != opRefresh, kind, due)
			e.ingestNS.Add(int64(d))
			e.ingestRoutes.Add(1)
			if err != nil {
				return err
			}
		}
		if i < len(ops) {
			wait := time.Until(start.Add(ops[i].at))
			if wait > time.Millisecond {
				wait = time.Millisecond
			}
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
	}
	e.tr.add("loadgen", runID, 0, 0, start, time.Now())
	return nil
}

// runServeChurn: episodes of a preloaded table (set-up) followed by
// open-loop churn at cfg.rate single-prefix UPDATEs/s.
func runServeChurn(cfg config, tr *tracer) *report {
	rep := newReport()
	var setups, rates, heaps, withdraws, announces, lag series
	var prop []series // per episode
	var layers serveLayers
	rt := &rtAccount{}
	per := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	for ep := 0; ep < cfg.rounds; ep++ {
		traced, cpu0 := tr.rep(ep), rt.cpu()
		sr := newRound(cfg, tr, rep, nil, false, true)
		e := sr.e
		setups.add(sr.setup)
		rates.add(sr.rate)
		logRound(len(setups), sr.setup, sr.rate)
		heaps.add(sr.heapPer)
		ops := churnSchedule(len(e.prefixes), cfg.rate, per, rand.New(rand.NewSource(cfg.seed*1000+int64(ep))))
		if sr.ok {
			rt.begin()
			select {
			case e.sources[0].ctl.churn <- ops:
				select {
				case <-e.sources[0].ctl.churnDone:
				case <-time.After(per + cfg.patience()):
					rep.check(false, "churn: generator did not finish")
				}
			case <-time.After(cfg.patience()):
				rep.check(false, "churn: peer 0's session did not take the schedule")
			}
			rep.check(e.awaitProbes(cfg.patience()), "churn: %d flaps never reached every router", e.outstanding.Load())
			rt.end()
		}
		e.drainAndVerify(rep)
		withdraws = append(withdraws, e.lat[probeWithdraw]...)
		announces = append(announces, e.lat[probeAnnounce]...)
		prop = append(prop, append(append(series{}, e.lat[probeWithdraw]...), e.lat[probeAnnounce]...))
		lag = append(lag, e.lag...)
		layers.add(e)
		rep.over.add(traced, rt.cpu()-cpu0, e.ingestRoutes.Load())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["routes_per_s"] = median(rates)
	rep.e2e["heap_bytes_per_prefix"] = median(heaps)
	rep.pctReps("propagation_p50_ms", prop, 0.5)
	rep.pctReps("propagation_p99_ms", prop, 0.99)
	rep.pct("recovery_p50_ms", withdraws, 0.5)
	rep.pct("reconverge_p50_ms", withdraws, 0.5)
	rep.pct("failback_p50_ms", announces, 0.5)
	rep.layerPct("loadgen.lag_p99_ms", lag, 0.99)
	layers.report(rep)
	rep.runtimeLayer(rt, layers.ingestRoutes)
	return rep
}
