package ghm_test

// One benchmark per experiment table (E1-E8, see DESIGN.md and
// EXPERIMENTS.md) plus micro-benchmarks for the packet-path primitives.
// The experiment benches run scaled-down configurations per iteration; use
// cmd/ghmbench for the full-scale tables.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ghm"
	"ghm/internal/adversary"
	"ghm/internal/bitstr"
	"ghm/internal/core"
	"ghm/internal/experiments"
	"ghm/internal/sim"
	"ghm/internal/wire"
)

// benchScale keeps a single experiment iteration around a few
// milliseconds.
const benchScale = 0.05

func benchOptions(i int) experiments.Options {
	return experiments.Options{Scale: benchScale, Seed: int64(i + 1)}
}

func BenchmarkE1Order(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E1(benchOptions(i))
		if !r.WithinBound() {
			b.Fatal("order bound violated")
		}
	}
}

func BenchmarkE2Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E2(benchOptions(i))
		if r.Hits("ghm eps=2^-16") != 0 {
			b.Fatal("ghm replayed")
		}
	}
}

func BenchmarkE3Duplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E3(benchOptions(i))
		if r.Duplicates("ghm eps=2^-20") != 0 {
			b.Fatal("ghm duplicated")
		}
	}
}

func BenchmarkE4Liveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E4(benchOptions(i))
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE5Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E5(benchOptions(i))
		if len(r.Rows) != 3 {
			b.Fatal("missing phases")
		}
	}
}

func BenchmarkE6Crash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E6(benchOptions(i))
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E7(benchOptions(i))
		if len(r.Rows) != 2 {
			b.Fatal("missing modes")
		}
	}
}

func BenchmarkE8Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E8(benchOptions(i))
		if !r.AllSafe() {
			b.Fatal("schedule variant violated safety")
		}
	}
}

func BenchmarkE9Forgery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E9(benchOptions(i))
		if !r.SafetyHolds() {
			b.Fatal("forgery broke safety")
		}
	}
}

// --- micro-benchmarks: the primitives on the packet path ---

func BenchmarkBitstrDraw(b *testing.B) {
	src := bitstr.NewMathSource(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = src.Draw(25)
	}
}

func BenchmarkBitstrConcat(b *testing.B) {
	src := bitstr.NewMathSource(rand.New(rand.NewSource(2)))
	base := src.Draw(25)
	ext := src.Draw(26)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = base.Concat(ext)
	}
}

func BenchmarkBitstrPrefix(b *testing.B) {
	src := bitstr.NewMathSource(rand.New(rand.NewSource(3)))
	long := src.Draw(120)
	short := long.Prefix(60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !long.HasPrefix(short) {
			b.Fatal("prefix lost")
		}
	}
}

func BenchmarkWireEncodeData(b *testing.B) {
	src := bitstr.NewMathSource(rand.New(rand.NewSource(4)))
	d := wire.Data{Msg: []byte("a typical short message"), Rho: src.Draw(25), Tau: src.Draw(25)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Encode()
	}
}

func BenchmarkWireDecodeData(b *testing.B) {
	src := bitstr.NewMathSource(rand.New(rand.NewSource(5)))
	enc := wire.Data{Msg: []byte("a typical short message"), Rho: src.Draw(25), Tau: src.Draw(25)}.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeData(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreHandshake measures one full message transfer (three packet
// hops) through the pure state machines: the protocol's CPU cost with the
// channel out of the picture.
func BenchmarkCoreHandshake(b *testing.B) {
	gtx, grx, err := sim.NewGHMPair(core.Params{}, 6)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("benchmark message")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gtx.SendMsg(msg); err != nil {
			b.Fatal(err)
		}
		for gtx.Busy() {
			for _, c := range grx.Retry() {
				pkts, _ := gtx.ReceivePacket(c)
				for _, dp := range pkts {
					_, acks := grx.ReceivePacket(dp)
					for _, a := range acks {
						gtx.ReceivePacket(a)
					}
				}
			}
		}
	}
}

// BenchmarkSimLossyMessage measures simulated end-to-end transfer cost on
// a 30%-lossy model channel, per message.
func BenchmarkSimLossyMessage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunGHM(sim.Config{
			Messages: 10,
			Adversary: adversary.NewFair(rand.New(rand.NewSource(int64(i))),
				adversary.FairConfig{Loss: 0.3}),
		}, core.Params{}, int64(i))
		if err != nil || !res.Done {
			b.Fatalf("run failed: %v done=%v", err, res.Done)
		}
	}
}

// BenchmarkMuxLanes measures confirmed-message throughput as lanes — the
// station's depth — scale on a link with latency, where one lane is held
// to stop-and-wait.
func BenchmarkMuxLanes(b *testing.B) {
	for _, lanes := range []int{1, 2, 4, 8} {
		lanes := lanes
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			left, right := ghm.Pipe(ghm.PipeFaults{ReorderProb: 0.95, Seed: int64(lanes)})
			s, err := ghm.NewMuxSender(left, lanes, ghm.WithRetryInterval(500*time.Microsecond))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			r, err := ghm.NewMuxReceiver(right, lanes, ghm.WithRetryInterval(500*time.Microsecond))
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					if _, err := r.Recv(ctx); err != nil {
						return
					}
				}
			}()

			msg := []byte("lane probe")
			var wg sync.WaitGroup
			sem := make(chan struct{}, lanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sem <- struct{}{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					if err := s.Send(ctx, msg); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			cancel()
			<-done
		})
	}
}

// BenchmarkSessionThroughput measures the concurrent runtime end to end
// over a perfect in-process pipe: messages per second through the full
// public API stack.
func BenchmarkSessionThroughput(b *testing.B) {
	left, right := ghm.Pipe(ghm.PipeFaults{Seed: 9})
	s, err := ghm.NewSender(left)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	r, err := ghm.NewReceiver(right, ghm.WithRetryInterval(200*time.Microsecond))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := r.Recv(ctx); err != nil {
				return
			}
		}
	}()

	msg := []byte("throughput probe")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Send(ctx, msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cancel()
	<-done
}
