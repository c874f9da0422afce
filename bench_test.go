package netkernel

// Benchmarks regenerating the paper's evaluation, one target per table
// and figure (DESIGN.md §4 maps them). The virtual-time experiments
// report their headline numbers as custom metrics (Gbit/s, Mbit/s);
// the wall-clock microbenchmarks report real ns/op on this host.
//
// Full-size paper-format runs: cmd/nkbench. Reference results:
// EXPERIMENTS.md.

import (
	"strconv"
	"testing"
	"time"

	"netkernel/internal/experiments"
	"netkernel/internal/hypervisor"
	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
)

// --- Table 1: memory-copy latency (wall clock) ---

func benchCopy(b *testing.B, size int) {
	pages, err := shm.NewHugePages(1, 8<<10)
	if err != nil {
		b.Fatal(err)
	}
	var chunks []shm.Chunk
	for i := 0; i < 64; i++ {
		c, ok := pages.Alloc()
		if !ok {
			break
		}
		chunks = append(chunks, c)
	}
	src := make([]byte, size)
	dst := make([]byte, size)
	b.SetBytes(int64(2 * size)) // one write + one read per op
	b.ResetTimer()
	idx := uint64(12345)
	for i := 0; i < b.N; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		c := chunks[idx%uint64(len(chunks))]
		pages.Write(c, src)
		pages.Read(c, dst, size)
	}
}

func BenchmarkTable1Copy64B(b *testing.B)  { benchCopy(b, 64) }
func BenchmarkTable1Copy512B(b *testing.B) { benchCopy(b, 512) }
func BenchmarkTable1Copy1KB(b *testing.B)  { benchCopy(b, 1<<10) }
func BenchmarkTable1Copy2KB(b *testing.B)  { benchCopy(b, 2<<10) }
func BenchmarkTable1Copy4KB(b *testing.B)  { benchCopy(b, 4<<10) }
func BenchmarkTable1Copy8KB(b *testing.B)  { benchCopy(b, 8<<10) }

// --- §4.2: nqe copy cost (paper: ~12 ns per event) ---

func BenchmarkNqeCopy(b *testing.B) {
	src, _ := nkqueue.NewQueue(nkqueue.Config{Slots: 2})
	dst, _ := nkqueue.NewQueue(nkqueue.Config{Slots: 2})
	e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 3, DataLen: 1448}
	var out nqe.Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Push(&e)
		nkqueue.Move(dst, src) // the measured CoreEngine copy
		dst.Pop(&out)
	}
}

// BenchmarkMoveBatch is the batched counterpart of BenchmarkNqeCopy:
// one op moves a 64-element batch end to end (PushBatch → MoveBatch →
// PopBatch), so ns/elem = ns/op ÷ 64. The batch path amortizes the
// atomic head/tail traffic over the whole span (§3.2 batched
// interrupts) and must beat the per-element path by ≥2×.
func BenchmarkMoveBatch(b *testing.B) {
	const batch = 64
	src, _ := nkqueue.NewQueue(nkqueue.Config{Slots: 2 * batch})
	dst, _ := nkqueue.NewQueue(nkqueue.Config{Slots: 2 * batch})
	es := make([]nqe.Element, batch)
	for i := range es {
		es[i] = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 3, DataLen: 1448}
	}
	out := make([]nqe.Element, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.PushBatch(es)
		nkqueue.MoveBatch(dst, src, batch) // the measured CoreEngine copy
		dst.PopBatch(out)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/elem")
}

// --- §4.2: GuestLib↔ServiceLib channel throughput per core ---

func benchShmChannel(b *testing.B, size int) {
	pages, _ := shm.NewHugePages(4, 8<<10)
	ring, _ := shm.NewRing(1024, nqe.Size)
	src := make([]byte, size)
	dst := make([]byte, size)
	slot := make([]byte, nqe.Size)
	var e, out nqe.Element
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk, ok := pages.Alloc()
		if !ok {
			b.Fatal("pages exhausted")
		}
		pages.Write(chunk, src)
		e = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, DataOff: chunk.Offset, DataLen: uint32(size)}
		e.Encode(slot)
		ring.Enqueue(slot)
		ring.Dequeue(slot)
		out.Decode(slot)
		c := shm.Chunk{Offset: out.DataOff}
		pages.Read(c, dst, int(out.DataLen))
		pages.Free(c)
	}
}

func BenchmarkShmChannel64B(b *testing.B) { benchShmChannel(b, 64) }
func BenchmarkShmChannel8KB(b *testing.B) { benchShmChannel(b, 8<<10) }

// benchEnginePump drives 64-element bursts of OpSend jobs through a
// CoreEngine (validate + fd→cID translate + copy to the NSM ring) at
// the given pump batch size. batch=1 approximates the old per-element
// pump; batch=64 is the span fast path.
func benchEnginePump(b *testing.B, batch int) {
	const burst = 64
	loop := sim.NewLoop()
	mk := func() *nkqueue.Queue {
		q, err := nkqueue.NewQueue(nkqueue.Config{Slots: 4 * burst})
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	ch := &nkchan.Pair{
		VMJob: mk(), VMCompletion: mk(), VMReceive: mk(),
		NSMJob: mk(), NSMCompletion: mk(), NSMReceive: mk(),
	}
	ce := hypervisor.NewCoreEngine(loop, hypervisor.EngineConfig{Batch: batch})
	ce.Attach(ch, 1, 2, 0, 0, 0)

	// Install the fd 5 ↔ cID 77 mapping with an OpSocket round trip.
	sock := nqe.Element{Op: nqe.OpSocket, Source: nqe.FromVM, VMID: 1, FD: 5, Seq: 1}
	ch.VMJob.Push(&sock)
	ch.KickEngineVM(0)
	loop.RunFor(10 * time.Millisecond)
	var got nqe.Element
	if !ch.NSMJob.Pop(&got) {
		b.Fatal("socket job did not cross the engine")
	}
	comp := nqe.Element{Op: nqe.OpSocket, Source: nqe.FromNSM, CID: 77, Seq: got.Seq}
	ch.NSMCompletion.Push(&comp)
	ch.KickEngineNSM(0)
	loop.RunFor(10 * time.Millisecond)
	if !ch.VMCompletion.Pop(&got) || got.FD != 5 {
		b.Fatal("socket completion did not come back")
	}

	es := make([]nqe.Element, burst)
	for i := range es {
		es[i] = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 5, DataLen: 1448}
	}
	out := make([]nqe.Element, burst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ch.VMJob.PushBatch(es) != burst {
			b.Fatal("job ring full")
		}
		ch.KickEngineVM(0)
		loop.RunFor(10 * time.Millisecond)
		drained := 0
		for drained < burst {
			n := ch.NSMJob.PopBatch(out)
			if n == 0 {
				b.Fatal("engine did not move the burst")
			}
			drained += n
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/elem")
}

func BenchmarkEnginePump(b *testing.B) {
	b.Run("batch=1", func(b *testing.B) { benchEnginePump(b, 1) })
	b.Run("batch=64", func(b *testing.B) { benchEnginePump(b, 64) })
}

// --- Figure 4: CUBIC native vs CUBIC NSM on 40 GbE (virtual time) ---

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFigure4(experiments.Figure4Config{
			Warmup: 200 * time.Millisecond,
			Window: 100 * time.Millisecond,
		})
		for _, r := range rows {
			b.ReportMetric(r.NativeBps/1e9, "native-"+itoa(r.Flows)+"flow-Gbps")
			b.ReportMetric(r.NSMBps/1e9, "nsm-"+itoa(r.Flows)+"flow-Gbps")
		}
	}
}

// --- DESIGN.md §8: streaming-echo copy budget (virtual time) ---

// BenchmarkEchoThroughput runs the bidirectional echo between two
// NetKernel VMs and reports goodput plus the per-direction
// copies-per-byte from the layer memcpy counters. bytes/op counts the
// payload the client got back per run; BENCH_echo.json records the
// trajectory across PRs.
func BenchmarkEchoThroughput(b *testing.B) {
	var echoed uint64
	for i := 0; i < b.N; i++ {
		res := experiments.RunCopyBudget(experiments.CopyBudgetConfig{
			Warmup: 100 * time.Millisecond,
			Window: 100 * time.Millisecond,
		})
		echoed += res.BytesEchoed
		b.ReportMetric(res.GoodputBps/1e9, "echo-Gbps")
		b.ReportMetric(res.TxCopiesPerByte, "tx-copies/B")
		b.ReportMetric(res.RxCopiesPerByte, "rx-copies/B")
	}
	b.SetBytes(int64(echoed / uint64(b.N)))
}

// BenchmarkScaleout runs the many-VM/many-flow scale-out measurement
// (DESIGN.md §10) at shards=1 and shards=4 and reports both aggregate
// goodputs plus the ratio; BENCH_scaleout.json records the trajectory
// and TestScaleoutGate enforces it in CI.
func BenchmarkScaleout(b *testing.B) {
	var moved uint64
	for i := 0; i < b.N; i++ {
		one := experiments.RunScaleout(experiments.ScaleoutConfig{Shards: 1})
		four := experiments.RunScaleout(experiments.ScaleoutConfig{Shards: 4})
		moved += uint64((one.AggregateBps + four.AggregateBps) / 8 * 0.05)
		b.ReportMetric(one.AggregateBps/1e9, "shards1-Gbps")
		b.ReportMetric(four.AggregateBps/1e9, "shards4-Gbps")
		b.ReportMetric(four.AggregateBps/one.AggregateBps, "scaleout-x")
	}
	b.SetBytes(int64(moved / uint64(b.N)))
}

// BenchmarkRPC runs the message-rate measurement (DESIGN.md §11):
// small-message echo RPS, sparse-activity wakeup amortization
// (poller vs per-event callbacks), and connect→close churn rate.
// BENCH_rpc.json records the trajectory and TestRPCGate enforces it
// in CI.
func BenchmarkRPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunRPC(experiments.RPCConfig{})
		b.ReportMetric(res.EchoRPS/1e3, "echo-kRPS")
		b.ReportMetric(res.AmortizationRatio, "wakeup-amortization-x")
		b.ReportMetric(float64(res.PollerLatency.Nanoseconds())/1e3, "sparse-latency-us")
		b.ReportMetric(res.ChurnPerSec/1e3, "churn-kconn/s")
	}
}

// --- Figure 5: the WAN flexibility experiment (virtual time) ---

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFigure5(experiments.Figure5Config{})
		for _, r := range rows {
			b.ReportMetric(r.Mbps, metricName(r.Scenario)+"-Mbps")
		}
	}
}

// --- §5 ablations ---

func BenchmarkNotifyModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunNotifyAblation()
		for _, r := range rows {
			b.ReportMetric(float64(r.ConnectRTT.Nanoseconds())/1e3, r.Mode+"-connect-us")
		}
	}
}

func BenchmarkPriorityQueues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunPriorityAblation()
		for _, r := range rows {
			name := "single-queue"
			if r.Priority {
				name = "priority-queues"
			}
			b.ReportMetric(float64(r.ConnectLatency.Microseconds()), name+"-connect-us")
		}
	}
}

func BenchmarkNSMForms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFormAblation()
		for _, r := range rows {
			b.ReportMetric(float64(r.ConnectRTT.Microseconds()), r.Form.String()+"-connect-us")
		}
	}
}

func BenchmarkMultiplexing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunMuxAblation()
		for _, r := range rows {
			b.ReportMetric(r.AggregateBps/1e9, metricName(r.Strategy)+"-aggregate-Gbps")
			b.ReportMetric(float64(r.MemoryMB), metricName(r.Strategy)+"-MB")
		}
	}
}

func BenchmarkScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunScaleOutAblation()
		for _, r := range rows {
			b.ReportMetric(r.AggregateBps/1e9, itoa(r.Replicas)+"replica-Gbps")
		}
	}
}

func BenchmarkSyncVsAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunSyncAblation()
		for _, r := range rows {
			name := "async"
			if r.Mode[:4] == "sync" {
				name = "sync"
			}
			b.ReportMetric(r.ThroughputBps/1e9, name+"-Gbps")
		}
	}
}

// --- helpers ---

func itoa(n int) string { return strconv.Itoa(n) }

func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ', r == '+':
			out = append(out, '-')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
