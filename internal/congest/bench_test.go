package congest

import (
	"fmt"
	"testing"

	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// Engine-level benchmarks: a bounded gossip protocol (every node
// broadcasts each round, for a fixed number of rounds) over the three
// benchmark graph families. Gossip floods every directed edge every
// round, so ns/op divided by rounds measures raw frame throughput.
// Reported metrics: rounds/sec, delivered payload bytes/sec, and (via
// -benchmem) allocations, which amortize to per-round costs.

// gossipMsg is a fixed-width token.
type gossipMsg struct{ hop int32 }

func (gossipMsg) BitLen() int { return 24 }

// gossipProc broadcasts at phase start and keeps re-broadcasting once per
// round until maxHop relay generations have run.
type gossipProc struct {
	maxHop int32
	seen   int
}

func (p *gossipProc) PhaseStart(ctx *Context) {
	ctx.Broadcast(gossipMsg{hop: 0})
}

func (p *gossipProc) Recv(ctx *Context, from NodeID, msg Message) {
	m := msg.(gossipMsg)
	p.seen++
	// Re-broadcast once per generation: reacting only to the lowest-index
	// sender keeps it to one broadcast per round.
	if m.hop+1 < p.maxHop && int32(from) == ctx.Neighbors()[0] {
		ctx.Broadcast(gossipMsg{hop: m.hop + 1})
	}
}

func benchGraphs(b *testing.B) map[string]*graph.Graph {
	b.Helper()
	return map[string]*graph.Graph{
		"er-n2k":      gen.ErdosRenyi(2000, 0.01, 1),
		"planted-n2k": gen.PlantedNearClique(2000, 400, 0.02, 0.005, 1).Graph,
		"powerlaw-2k": gen.PreferentialAttachment(2000, 8, 1),
	}
}

// BenchmarkEngineSharded measures an 8-hop gossip phase on the
// synchronous executor.
func BenchmarkEngineSharded(b *testing.B) {
	for name, g := range benchGraphs(b) {
		b.Run(name, func(b *testing.B) {
			const hops = 8
			b.ReportAllocs()
			b.ResetTimer()
			totalRounds, totalBytes := 0, 0
			for i := 0; i < b.N; i++ {
				net := NewNetwork(g, Options{Seed: 7}, func(ctx *Context) Proc {
					return &gossipProc{maxHop: hops}
				})
				if err := net.RunPhase("gossip"); err != nil {
					b.Fatal(err)
				}
				m := net.Metrics()
				if m.Rounds != hops {
					b.Fatalf("rounds=%d, want %d", m.Rounds, hops)
				}
				totalRounds += m.Rounds
				totalBytes += m.Bits / 8
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(totalRounds)/secs, "rounds/sec")
				b.ReportMetric(float64(totalBytes)/secs, "payloadB/sec")
			}
		})
	}
}

// BenchmarkEngineShardedParallel exercises the worker pool explicitly
// (shards > 1 even on a single-CPU machine).
func BenchmarkEngineShardedParallel(b *testing.B) {
	g := gen.ErdosRenyi(2000, 0.01, 1)
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net := NewNetwork(g, Options{Seed: 7, Parallelism: workers}, func(ctx *Context) Proc {
					return &gossipProc{maxHop: 8}
				})
				if err := net.RunPhase("gossip"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
