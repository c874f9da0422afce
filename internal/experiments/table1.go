package experiments

import (
	"runtime"
	"time"

	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/shm"
)

// These microbenchmarks are wall-clock measurements on real memory —
// the same quantity the paper measures on its Xeon E5-2618LV3 testbed.
// Absolute numbers scale with the host CPU; the reproduced claims are
// the shape (copy latency grows roughly linearly with chunk size and
// stays under a microsecond at 8 KB) and the conclusion ("NetKernel is
// unlikely to be the bottleneck in data transmission").

// windows is how many timing windows each wall-clock point is split
// into; the point reports its fastest. Interference (a preemption, a
// busy neighbour) only ever adds time, so the fastest window estimates
// the uncontended cost, where a single window keeps whatever hit it.
const windows = 5

// fastest times run once per window and returns the shortest time.
func fastest(run func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for w := 0; w < windows; w++ {
		start := time.Now()
		run()
		best = min(best, time.Since(start))
	}
	return best
}

// Table1Chunks are the paper's chunk sizes.
var Table1Chunks = []int{64, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10}

// Table1Row is one column of Table 1: "Memory copying latency in
// NetKernel" (paper: 64B 8ns, 512B 64ns, 1KB 117ns, 2KB 214ns, 4KB
// 425ns, 8KB 809ns).
type Table1Row struct {
	ChunkBytes int
	Latency    time.Duration
}

// RunTable1 measures huge-page copy latency with random-offset reads,
// as §4.2 does ("the latency of memory copying between GuestLib and
// ServiceLib with random address reads"). Each chunk size runs iters
// iterations, split into windows, and reports the fastest window.
func RunTable1(iters int) []Table1Row {
	if iters <= 0 {
		iters = 200000
	}
	per := max(iters/windows, 1)
	pages, err := shm.NewHugePages(shm.DefaultPageCount, 8<<10)
	if err != nil {
		panic(err)
	}
	// Randomize offsets within one 2 MB huge page (cache-warm, like
	// the paper's sub-10ns 64-byte figure implies); spanning the full
	// 80 MB region instead measures DRAM latency, not copy cost.
	chunks := make([]shm.Chunk, 0, shm.PageSize/(8<<10))
	for cap(chunks) > len(chunks) {
		c, ok := pages.Alloc()
		if !ok {
			break
		}
		chunks = append(chunks, c)
	}
	src := make([]byte, 8<<10)
	for i := range src {
		src[i] = byte(i * 31)
	}
	dst := make([]byte, 8<<10)

	rows := make([]Table1Row, 0, len(Table1Chunks))
	var sink byte
	for _, size := range Table1Chunks {
		// Warm the whole randomized set into cache.
		for i := 0; i < 4*len(chunks); i++ {
			pages.Write(chunks[i%len(chunks)], src)
		}
		idx := uint64(0x9e3779b97f4a7c15)
		elapsed := fastest(func() {
			for i := 0; i < per; i++ {
				idx = idx*6364136223846793005 + 1442695040888963407
				c := chunks[idx%uint64(len(chunks))]
				pages.Write(c, src[:size])
				pages.Read(c, dst[:size], size)
				sink ^= dst[0]
			}
		})
		// Two copies (write + read) per iteration; the paper reports a
		// single copy.
		rows = append(rows, Table1Row{ChunkBytes: size, Latency: elapsed / time.Duration(2*per)})
	}
	runtime.KeepAlive(sink)
	return rows
}

// NqeCopyCost measures the CoreEngine's queue-to-queue element copy —
// §4.2: "A nqe is copied between VM and NSM via CoreEngine. The cost
// of this is ∼12ns per event." The iters moves, and the calibration
// beside them, are each split into windows, and each reports its
// fastest window.
func NqeCopyCost(iters int) time.Duration {
	if iters <= 0 {
		iters = 1 << 20
	}
	per := max(iters/windows, 1)
	src, err := nkqueue.NewQueue(nkqueue.Config{Slots: 2})
	if err != nil {
		panic(err)
	}
	dst, err := nkqueue.NewQueue(nkqueue.Config{Slots: 2})
	if err != nil {
		panic(err)
	}
	e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 3, Seq: 1, DataLen: 1448}
	var scratch nqe.Element
	elapsed := fastest(func() {
		for i := 0; i < per; i++ {
			src.Push(&e)
			nkqueue.Move(dst, src)
			dst.Pop(&scratch)
		}
	})
	// Push and Pop bracket the measured Move; calibrate them away.
	overhead := fastest(func() {
		for i := 0; i < per; i++ {
			src.Push(&e)
			src.Pop(&scratch)
		}
	})
	return max((elapsed-overhead)/time.Duration(per), 0)
}

// ShmChannelRow is one point of the §4.2 channel-throughput
// measurement: "NetKernel can achieve ∼64Gbps (64B) and ∼81Gbps (8KB)
// between GuestLib and ServiceLib for each core."
type ShmChannelRow struct {
	ChunkBytes int
	BitsPerSec float64
}

// RunShmChannel measures GuestLib↔ServiceLib data-channel throughput
// for one core: data chunks copied into huge pages, descriptors pushed
// through a ring, then copied back out on the consumer side — the full
// §3.2 transport datapath without the TCP stack behind it. Each chunk
// size runs for duration, split into windows, and reports the rate of
// its fastest window.
func RunShmChannel(chunks []int, duration time.Duration) []ShmChannelRow {
	if len(chunks) == 0 {
		chunks = []int{64, 8 << 10}
	}
	if duration <= 0 {
		duration = 200 * time.Millisecond
	}
	rows := make([]ShmChannelRow, 0, len(chunks))
	for _, size := range chunks {
		rows = append(rows, ShmChannelRow{ChunkBytes: size, BitsPerSec: shmChannelRate(size, duration)})
	}
	return rows
}

func shmChannelRate(chunkSize int, duration time.Duration) float64 {
	pages, err := shm.NewHugePages(4, 8<<10)
	if err != nil {
		panic(err)
	}
	ring, err := shm.NewRing(1024, nqe.Size)
	if err != nil {
		panic(err)
	}
	src := make([]byte, chunkSize)
	dst := make([]byte, chunkSize)
	var e, out nqe.Element
	slot := make([]byte, nqe.Size)
	best := 0.0
	for w := 0; w < windows; w++ {
		var moved uint64
		start := time.Now()
		deadline := start.Add(duration / windows)
		for time.Now().Before(deadline) {
			// Batch to amortize the deadline check.
			for b := 0; b < 256; b++ {
				chunk, ok := pages.Alloc()
				if !ok {
					break
				}
				pages.Write(chunk, src)
				e = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, DataOff: chunk.Offset, DataLen: uint32(chunkSize)}
				e.Encode(slot)
				if !ring.Enqueue(slot) {
					pages.Free(chunk)
					break
				}
				// Consumer side.
				if ring.Dequeue(slot) {
					out.Decode(slot)
					c := shm.Chunk{Offset: out.DataOff}
					pages.Read(c, dst, int(out.DataLen))
					pages.Free(c)
					moved += uint64(out.DataLen)
				}
			}
		}
		best = max(best, float64(moved)*8/time.Since(start).Seconds())
	}
	return best
}
