package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/core"
	"supercharged/internal/daemon"
	"supercharged/internal/dataplane"
	"supercharged/internal/feed"
	"supercharged/internal/packet"
)

// probesPerCheck is how many sampled prefixes each data-plane probe walk
// sends through the switch.
const probesPerCheck = 256

// superHarness composes the supercharger as the paper deploys it:
// bgp.RIB → core.Processor → the router's FIB (a daemon.FIBSink), and
// core.Engine → dataplane.FlowTable through a core.FlowPusherFunc.
type superHarness struct {
	cfg      config
	tr       *tracer
	rep      *report
	peers    []bgp.PeerMeta
	ports    []core.PeerPort
	updates  [][]*bgp.Update // per peer, the rendered feed
	prefixes []netip.Prefix
	rng      *rand.Rand

	groups *core.GroupTable
	proc   *core.Processor
	eng    *core.Engine
	flows  *dataplane.FlowTable
	fib    *daemon.FIBSink
	seq    uint64
	cur    uint64 // span of the engine call in progress, parent of its pushes
	down   bool   // peer 0 is failed

	renderNS, applyNS time.Duration
	batches, changes  int
	in, out           int
	procUS, pushUS    series
}

// newSuperHarness generates each peer's table — the same prefixes, with
// the attribute templates permuted per peer, so that the peers rank
// differently and several backup-groups form — and renders their feeds.
func newSuperHarness(cfg config, tr *tracer, rep *report) *superHarness {
	h := &superHarness{cfg: cfg, tr: tr, rep: rep, rng: rand.New(rand.NewSource(cfg.seed))}
	base := feed.Generate(feed.Config{N: cfg.prefixes, Seed: cfg.seed})
	h.prefixes = base.Prefixes()
	for i := 0; i < cfg.peers; i++ {
		m := peerMeta(i)
		m.Weight = 0 // the processor ranks the peers by their attributes alone
		h.peers = append(h.peers, m)
		h.ports = append(h.ports, core.PeerPort{NH: m.Addr, MAC: packet.MAC{0x02, 0, 0, 0, 0, byte(i + 1)}, Port: uint16(i + 1)})
		perm := rand.New(rand.NewSource(cfg.seed*31 + int64(i))).Perm(len(base.Templates))
		tbl := &feed.Table{Routes: base.Routes, Templates: make([]feed.Template, len(base.Templates))}
		for t, p := range perm {
			tbl.Templates[t] = base.Templates[p]
		}
		t0 := time.Now()
		ups, err := tbl.Updates(m.AS, m.Addr, bgp.Codec{})
		t1 := time.Now()
		rep.check(err == nil, "render peer %d feed: %v", i, err)
		h.tr.add("feed", 0, 0, uint64(i), t0, t1)
		h.renderNS += t1.Sub(t0)
		h.updates = append(h.updates, ups)
	}
	return h
}

// build wires processor, engine, switch and router FIB.
func (h *superHarness) build() {
	h.groups = core.NewGroupTable(nil)
	h.proc = core.NewProcessor(nil, h.groups) // GroupSize 2, the production default
	h.proc.Reserve(len(h.prefixes))
	h.flows = dataplane.NewFlowTable()
	var pusher core.FlowPusher = core.FlowPusherFunc(h.push)
	if h.cfg.wrapPusher != nil {
		pusher = h.cfg.wrapPusher(h, pusher)
	}
	h.eng = core.NewEngine(h.groups, pusher)
	for _, pp := range h.ports {
		h.eng.RegisterPeer(pp)
	}
	h.proc.OnNewGroup = func(g core.Group) error {
		return h.engineCall(0, func() error { return h.eng.InstallGroup(g) })
	}
	h.fib = daemon.NewFIBSink("router")
}

// push is the switch-programming backend: one rule per backup-group.
func (h *superHarness) push(g core.Group, target core.PeerPort) error {
	t0 := time.Now()
	h.flows.Upsert(dataplane.Flow{
		Priority: 100,
		Match:    dataplane.MatchDstMAC(g.VMAC),
		Actions:  []dataplane.Action{dataplane.SetDstMAC(target.MAC), dataplane.Output(target.Port)},
	})
	t1 := time.Now()
	h.tr.add("dataplane.flowtable", 0, h.cur, 0, t0, t1)
	h.pushUS.add(us(t1.Sub(t0)))
	return nil
}

// engineCall runs one engine entry point under its own span, which
// parents the rule pushes it makes.
func (h *superHarness) engineCall(op uint64, f func() error) error {
	id, parent := h.tr.id(), h.cur
	h.cur = id
	t0 := time.Now()
	err := f()
	h.tr.add("core.engine", id, parent, op, t0, time.Now())
	h.cur = parent
	return err
}

// process feeds one peer UPDATE to the processor and programs what it
// emits into the router FIB; it returns the time the two took.
func (h *superHarness) process(peer int, u *bgp.Update, op uint64) time.Duration {
	id := h.tr.id()
	h.cur = id
	t0 := time.Now()
	outs, err := h.proc.Process(h.peers[peer], u)
	t1 := time.Now()
	h.tr.add("core.processor", id, 0, op, t0, t1)
	h.cur = 0
	if err != nil {
		h.rep.check(false, "process: %v", err)
	}
	h.procUS.add(us(t1.Sub(t0)))
	h.in += len(u.NLRI) + len(u.Withdrawn)
	h.apply(outs, op)
	return time.Since(t0)
}

// apply programs the processor's UPDATEs into the router FIB as one batch.
func (h *superHarness) apply(outs []*bgp.Update, op uint64) {
	var changes []daemon.RouteChange
	for _, o := range outs {
		for _, p := range o.Withdrawn {
			changes = append(changes, daemon.RouteChange{Prefix: p})
		}
		for _, p := range o.NLRI {
			changes = append(changes, daemon.RouteChange{Prefix: p, NextHop: o.Attrs.NextHop})
		}
	}
	core.RecycleUpdates(outs)
	h.out += len(changes)
	if len(changes) == 0 {
		return
	}
	h.seq++
	t0 := time.Now()
	err := h.fib.Apply(daemon.Batch{Seq: h.seq, At: t0, Changes: changes})
	t1 := time.Now()
	h.rep.check(err == nil, "router FIB apply: %v", err)
	h.tr.add("daemon.sink", 0, 0, op, t0, t1)
	h.applyNS += t1.Sub(t0)
	h.batches++
	h.changes += len(changes)
}

// egress walks one prefix through the data plane: router FIB next-hop,
// its group's VMAC, then the switch's flow table. Plain next-hops leave
// on their peer's port directly.
func (h *superHarness) egress(p netip.Prefix, buf *packet.Buffer) (uint16, bool) {
	nh, ok := h.fib.NextHop(p)
	if !ok {
		return 0, false
	}
	g, virtual := h.groups.ByVNH(nh)
	if !virtual {
		for _, pp := range h.ports {
			if pp.NH == nh {
				return pp.Port, true
			}
		}
		return 0, false
	}
	frame, err := packet.UDPFrame(buf, packet.MAC{0x02, 0xff, 0, 0, 0, 1}, g.VMAC,
		netip.AddrFrom4([4]byte{192, 0, 2, 1}), p.Addr(), 4000, 4001, nil)
	if err != nil {
		return 0, false
	}
	t0 := time.Now()
	out, ok := h.flows.Process(0, frame)
	h.tr.add("dataplane.flowtable", 0, 0, 0, t0, time.Now())
	if !ok || len(out) == 0 {
		return 0, false
	}
	return out[0].Port, true
}

// probeWalk sends sampled prefixes through the data plane. With the
// primary down no probe may leave on its port; otherwise each must leave
// on its group's first next-hop (the primary of its tuple).
func (h *superHarness) probeWalk(what string) {
	buf := packet.NewBuffer()
	for i := 0; i < probesPerCheck; i++ {
		p := h.prefixes[h.rng.Intn(len(h.prefixes))]
		port, ok := h.egress(p, buf)
		if !ok {
			h.rep.check(false, "%s: %s does not forward", what, p)
			continue
		}
		if h.down {
			h.rep.check(port != h.ports[0].Port, "%s: %s still forwards to the failed peer", what, p)
			continue
		}
		want := port
		nh, _ := h.fib.NextHop(p)
		if g, virtual := h.groups.ByVNH(nh); virtual {
			want = h.ports[int(code(g.NHs[0]))-1].Port
		}
		h.rep.check(port == want, "%s: %s leaves on port %d, want %d", what, p, port, want)
	}
}

// verifyFIB checks the router FIB against what the processor advertised.
func (h *superHarness) verifyFIB(what string) {
	bad := 0
	for _, p := range h.prefixes {
		nh, _, ok := h.proc.Advertised(p)
		got, has := h.fib.NextHop(p)
		if ok != has || (ok && nh != got) {
			bad++
		}
	}
	h.rep.check(bad == 0 && h.fib.Len() == h.proc.AdvertisedCount(),
		"%s: router FIB differs from the advertised table at %d prefixes", what, bad)
}

// load runs every peer's feed through the processor, interleaved one
// UPDATE at a time, and returns announcements per second.
func (h *superHarness) load() float64 {
	t0 := time.Now()
	n := 0
	for k := 0; ; k++ {
		sent := false
		for i := range h.updates {
			if k < len(h.updates[i]) {
				h.process(i, h.updates[i][k], 0)
				n += len(h.updates[i][k].NLRI)
				sent = true
			}
		}
		if !sent {
			break
		}
	}
	return float64(n) / time.Since(t0).Seconds()
}

// superEvent holds the timings of one event.
type superEvent struct {
	recovery, reconverge, failback time.Duration
	engine, procDown               time.Duration
	rules                          int
	prop                           series
}

// event is one failover of peer 0 and its return. Like the serve
// failovers (see serveEnv.failover), the failure and the failback each
// start from a collected heap; rt accounts only the timed phases.
func (h *superHarness) event(op uint64, rt *rtAccount) superEvent {
	var ev superEvent
	nh := h.peers[0].Addr
	// Data plane first: the engine retargets the failed primary's groups.
	// The walk before the failure checks the steady state and leaves the
	// data plane's tables in cache, as live traffic would: the retarget
	// is microseconds, and cold misses after the collection would make
	// it a measure of the host's memory latency instead.
	runtime.GC()
	h.probeWalk("before failure")
	rt.begin()
	t0 := time.Now()
	h.down = true
	err := h.engineCall(op, func() error {
		n, err := h.eng.PeerDown(nh)
		ev.rules = n
		return err
	})
	ev.engine = time.Since(t0)
	ev.recovery = ev.engine
	rt.end()
	h.rep.check(err == nil, "engine peer down: %v", err)
	h.probeWalk("after engine peer down")

	// Control plane: the processor withdraws the peer and the router
	// reconverges on what it re-announces.
	rt.begin()
	t1 := time.Now()
	id := h.tr.id()
	outs, err := h.proc.PeerDown(nh)
	t2 := time.Now()
	h.tr.add("core.processor", id, 0, op, t1, t2)
	h.rep.check(err == nil, "processor peer down: %v", err)
	h.apply(outs, op)
	ev.procDown = t2.Sub(t1)
	ev.reconverge = ev.engine + time.Since(t1)
	rt.end()
	h.probeWalk("after reconvergence")

	// Failback: the session returns and re-announces its table.
	runtime.GC()
	rt.begin()
	t3 := time.Now()
	h.down = false
	err = h.engineCall(op, func() error {
		_, err := h.eng.PeerUp(nh)
		return err
	})
	h.rep.check(err == nil, "engine peer up: %v", err)
	for _, u := range h.updates[0] {
		ev.prop.add(ms(h.process(0, u, op)))
	}
	ev.failback = time.Since(t3)
	rt.end()
	h.probeWalk("after failback")
	return ev
}

// runSupercharge: episodes of table generation and rendering (set-up),
// an initial load through the processor (routes_per_s), then repeated
// failover events of peer 0.
func runSupercharge(cfg config, tr *tracer) *report {
	rep := newReport()
	var setups, rates, heaps, rec, recon, fb series
	var prop []series // per event
	var engineUS, procDownMS, rules, procUS, pushUS series
	var renderNS, applyNS time.Duration
	var batches, changes, in, out, groups int
	rt := &rtAccount{}
	start := time.Now()
	events := 0
	for ep := 0; ep < cfg.rounds; ep++ {
		traced, cpu0 := tr.rep(ep), rt.cpu()
		var sc setupClock
		sc.resume()
		tr.pause()
		h := newSuperHarness(cfg, tr, rep)
		tr.resume()
		sc.pause()
		heap0 := liveHeap()
		sc.resume()
		h.build()
		sc.pause()
		setups.add(sc.acc.Seconds())

		rt.begin()
		rates.add(h.load())
		logRound(len(setups), setups[len(setups)-1], rates[len(rates)-1])
		rt.end()
		h.verifyFIB("initial load")
		heaps.add((float64(liveHeap()) - float64(heap0)) / float64(len(h.prefixes)))
		groups = h.groups.Len()

		share := float64(ep+1) / float64(cfg.rounds)
		for time.Since(start).Seconds() < cfg.seconds*share || float64(events) < float64(cfg.events)*share {
			ev := h.event(uint64(events+1), rt)
			rec.add(ms(ev.recovery))
			recon.add(ms(ev.reconverge))
			fb.add(ms(ev.failback))
			prop = append(prop, ev.prop)
			engineUS.add(us(ev.engine))
			procDownMS.add(ms(ev.procDown))
			rules.add(float64(ev.rules))
			events++
		}
		h.verifyFIB(fmt.Sprintf("episode %d end", ep))
		procUS = append(procUS, h.procUS...)
		pushUS = append(pushUS, h.pushUS...)
		renderNS += h.renderNS
		applyNS += h.applyNS
		batches += h.batches
		changes += h.changes
		in += h.in
		out += h.out
		rep.over.add(traced, rt.cpu()-cpu0, int64(h.in))
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["routes_per_s"] = median(rates)
	rep.e2e["heap_bytes_per_prefix"] = median(heaps)
	rep.pctReps("propagation_p50_ms", prop, 0.5)
	rep.pctReps("propagation_p99_ms", prop, 0.99)
	rep.pct("recovery_p50_ms", rec, 0.5)
	rep.pct("reconverge_p50_ms", recon, 0.5)
	rep.pct("failback_p50_ms", fb, 0.5)

	rep.layer["feed.render_s"] = renderNS.Seconds()
	rep.layer["daemon.sink.apply_busy_s"] = applyNS.Seconds()
	rep.layer["daemon.sink.batches"] = float64(batches)
	if changes > 0 {
		rep.layer["daemon.sink.apply_ns_per_change"] = float64(applyNS.Nanoseconds()) / float64(changes)
	}
	rep.layerPct("core.processor.process_p50_us", procUS, 0.5)
	rep.layerPct("core.processor.process_p99_us", procUS, 0.99)
	if in > 0 {
		rep.layer["core.processor.out_per_in"] = float64(out) / float64(in)
	}
	rep.layer["core.processor.peerdown_ms"] = median(procDownMS)
	rep.layer["core.groups"] = float64(groups)
	rep.layer["core.engine.peerdown_us"] = median(engineUS)
	rep.layer["core.engine.rules_rewritten"] = median(rules)
	rep.layerPct("dataplane.flowtable.push_us", pushUS, 0.5)
	rep.runtimeLayer(rt, int64(in))
	return rep
}
