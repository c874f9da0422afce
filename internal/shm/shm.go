// Package shm is NetKernel's shared-memory substrate.
//
// The paper builds two communication channels between a tenant VM and its
// Network Stack Module (§3.1): a small IVSHMEM region holding ring-buffer
// queues for nqe metadata, and a huge-page region (2 MB pages) holding the
// actual application data, with a unique region per VM↔NSM pair for
// isolation. This package reproduces both on plain process memory:
//
//   - HugePages: a chunk allocator over a contiguous byte region,
//     standing in for the 2 MB huge pages GuestLib and ServiceLib copy
//     data through; the region backs one huge page at a time on first
//     touch.
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

import "sync/atomic"

// PageSize is the huge-page size used by the prototype (QEMU IVSHMEM,
// §4.1): 2 MB.
const PageSize = 2 << 20

// DefaultPageCount matches the prototype's 40 huge pages per VM↔NSM pair.
const DefaultPageCount = 40

// A region is a contiguous shared-memory area. It stands in for an
// IVSHMEM device mapped into both a tenant VM and its NSM.
//
// Like a mapped hugetlbfs file, a region costs nothing until it is used:
// each PageSize page is backed on the first access into it and stays
// backed for the region's life (DESIGN.md §17). The size is capacity,
// not cost.
type region struct {
	size  int
	pages []atomic.Pointer[[]byte] // nil until first touched
}

// newRegion reserves a region of the given size; no page is backed yet.
func newRegion(size int) *region {
	if size <= 0 {
		panic("shm: non-positive region size")
	}
	return &region{size: size, pages: make([]atomic.Pointer[[]byte], (size+PageSize-1)/PageSize)}
}

// resident returns the number of pages backed so far.
func (r *region) resident() int {
	n := 0
	for i := range r.pages {
		if r.pages[i].Load() != nil {
			n++
		}
	}
	return n
}

// window returns the [off, off+n) window of the region, backing its page
// on first touch. The slice aliases region memory: writes through it are
// visible to both sides. The caller has already checked that the window
// lies within one page of the region; a window that does not panics.
func (r *region) window(off, n int) []byte {
	u := uint(off) // off ≥ 0: unsigned, the page divisions are a shift and a mask
	in := int(u % PageSize)
	var page []byte
	if b := r.pages[u/PageSize].Load(); b != nil {
		page = *b
	} else {
		page = r.back(int(u / PageSize))
	}
	return page[in : in+n : in+n]
}

// back backs page i on its first touch. Racing first touches each build
// a page, but only one CompareAndSwap wins and every caller returns the
// winner, so no write lands in a discarded page.
func (r *region) back(i int) []byte {
	p := &r.pages[i]
	b := make([]byte, min(PageSize, r.size-i*PageSize))
	if p.CompareAndSwap(nil, &b) {
		return b
	}
	return *p.Load()
}
