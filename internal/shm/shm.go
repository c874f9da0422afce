// Package shm is NetKernel's shared-memory substrate.
//
// The paper builds two communication channels between a tenant VM and its
// Network Stack Module (§3.1): a small IVSHMEM region holding ring-buffer
// queues for nqe metadata, and a huge-page region (2 MB pages) holding the
// actual application data, with a unique region per VM↔NSM pair for
// isolation. This package reproduces both on plain process memory:
//
//   - Region: a contiguous byte area standing in for an IVSHMEM device.
//   - HugePages: a chunk allocator over a Region, standing in for the
//     2 MB huge pages GuestLib and ServiceLib copy data through.
//   - Ring: a single-producer single-consumer ring buffer of fixed-size
//     slots, standing in for the queue devices.
//
// Notification between the two sides is not a shared-memory object: the
// owners of a channel wake each other through nkchan.Pair's Kick hooks.
//
// The datapath cost the paper measures (Table 1 memory-copy latency, the
// ~12 ns nqe copy) is memory-copy cost, which this package incurs for
// real; the benchmarks in bench_test.go measure it with testing.B.
package shm

import "fmt"

// PageSize is the huge-page size used by the prototype (QEMU IVSHMEM,
// §4.1): 2 MB.
const PageSize = 2 << 20

// DefaultPageCount matches the prototype's 40 huge pages per VM↔NSM pair.
const DefaultPageCount = 40

// A Region is a contiguous shared-memory area. It stands in for an
// IVSHMEM device mapped into both a tenant VM and its NSM.
type Region struct {
	buf []byte
}

// NewRegion allocates a region of the given size.
func NewRegion(size int) *Region {
	if size <= 0 {
		panic("shm: non-positive region size")
	}
	return &Region{buf: make([]byte, size)}
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return len(r.buf) }

// Slice returns the [off, off+n) window of the region. The returned slice
// aliases region memory: writes through it are visible to both sides.
func (r *Region) Slice(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(r.buf) {
		return nil, fmt.Errorf("shm: slice [%d, %d+%d) out of region of %d bytes", off, off, n, len(r.buf))
	}
	return r.buf[off : off+n : off+n], nil
}
