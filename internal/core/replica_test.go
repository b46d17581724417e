package core

import (
	"math/rand"
	"net/netip"
	"testing"

	"supercharged/internal/bgp"
	"supercharged/internal/feed"
)

// TestReplicaDeterminismAblation is ablation A1: two controller replicas
// receive the same per-peer feeds with different inter-peer interleaving
// (order kept within a peer, as TCP guarantees). For the routers and
// switches behind them to behave identically, the replicas must agree on
// every prefix's eventual advertisement and on the VNH and VMAC of every
// group both realized. Transient groups may differ: they are what the
// interleaving makes of the ranking mid-flight. Only deterministic
// allocation promises the VNH half; VMACs agree in both modes.
func TestReplicaDeterminismAblation(t *testing.T) {
	const peers = 4
	table := feed.Generate(feed.Config{N: 1500, Seed: 1})
	metas := make([]bgp.PeerMeta, peers)
	feeds := make([][]*bgp.Update, peers)
	updates := 0
	for i := range metas {
		a := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		metas[i] = bgp.PeerMeta{Addr: a, AS: uint32(65002 + i), ID: a, Weight: uint32(1000 - i*10)}
		ups, err := table.Updates(metas[i].AS, a, bgp.Codec{ASN4: true})
		if err != nil {
			t.Fatal(err)
		}
		feeds[i] = ups
		updates += len(ups)
	}
	replay := func(mode AllocMode, shuffleSeed int64) (*GroupTable, *Processor) {
		gt := NewGroupTable(NewVNHPool(mode))
		proc := NewProcessor(nil, gt)
		rng := rand.New(rand.NewSource(shuffleSeed))
		next := make([]int, peers)
		for remaining := updates; remaining > 0; {
			p := rng.Intn(peers)
			if next[p] == len(feeds[p]) {
				continue
			}
			if _, err := proc.Process(metas[p], feeds[p][next[p]]); err != nil {
				t.Fatal(err)
			}
			next[p]++
			remaining--
		}
		return gt, proc
	}

	for _, mode := range []AllocMode{AllocSequential, AllocDeterministic} {
		gtA, procA := replay(mode, 101)
		gtB, procB := replay(mode, 201)
		disagree := 0
		for _, r := range table.Routes {
			nhA, virtA, okA := procA.Advertised(r.Prefix)
			nhB, virtB, okB := procB.Advertised(r.Prefix)
			if !okA || !okB || virtA != virtB || nhA != nhB {
				disagree++
			}
		}
		shared, vnhDisagree := 0, 0
		for _, ga := range gtA.All() {
			gb, ok := gtB.Get(ga.NHs...)
			if !ok {
				continue
			}
			shared++
			if ga.VNH != gb.VNH {
				vnhDisagree++
			}
			if ga.VMAC != gb.VMAC {
				t.Fatalf("%s: group %v has VMAC %v on one replica, %v on the other", mode, ga.NHs, ga.VMAC, gb.VMAC)
			}
		}
		if shared == 0 {
			t.Fatalf("%s: the replicas share no group", mode)
		}
		if mode == AllocDeterministic && (disagree != 0 || vnhDisagree != 0) {
			t.Fatalf("deterministic replicas disagree on %d/%d prefixes and %d/%d shared groups",
				disagree, table.Len(), vnhDisagree, shared)
		}
	}
}
