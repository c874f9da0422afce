package tcp

// byteRing is a bounded FIFO of bytes used for the send and receive
// buffers. It supports reading from an offset without consuming, which
// the send path uses to (re)transmit unacknowledged data.
//
// The backing array is allocated lazily and grows geometrically up to
// the logical capacity (DESIGN.md §11): Cap/Free always report the
// configured bound — so the advertised receive window is exactly what
// an eager allocation would give — but a connection that never buffers
// more than a few KB (short flows, prompt drains, the §8 receive-sink
// bypass) never pays for, or zeroes, the full buffer. Connection-churn
// workloads otherwise spend most of their cycles in memclr for rings
// that are thrown away empty.
type byteRing struct {
	buf   []byte
	cap   int // logical capacity; len(buf) grows lazily toward it
	start int // index of the first byte
	n     int // occupied bytes
}

// ringMinAlloc is the smallest physical allocation once a ring holds
// any bytes at all.
const ringMinAlloc = 1 << 10

// reset empties the ring and sets its capacity, keeping the storage an
// earlier connection grew unless it exceeds the new capacity.
func (r *byteRing) reset(capacity int) {
	if capacity <= 0 {
		panic("tcp: non-positive buffer capacity")
	}
	if len(r.buf) > capacity {
		r.buf = nil
	}
	r.cap, r.start, r.n = capacity, 0, 0
}

func (r *byteRing) Cap() int    { return r.cap }
func (r *byteRing) Len() int    { return r.n }
func (r *byteRing) Free() int   { return r.cap - r.n }
func (r *byteRing) Empty() bool { return r.n == 0 }

// grow ensures the physical buffer holds at least need bytes,
// linearizing the occupied prefix into the new array (start returns
// to 0, so modulo indexing stays valid across the swap).
func (r *byteRing) grow(need int) {
	size := len(r.buf)
	if size == 0 {
		size = ringMinAlloc
	}
	for size < need {
		size *= 2
	}
	if size > r.cap {
		size = r.cap
	}
	buf := make([]byte, size)
	if r.n > 0 {
		first := copy(buf, r.buf[r.start:])
		if first < r.n {
			copy(buf[first:], r.buf[:r.n-first])
		}
	}
	r.buf = buf
	r.start = 0
}

// Write appends as much of p as fits, returning the number of bytes
// accepted.
func (r *byteRing) Write(p []byte) int {
	w := len(p)
	if w > r.Free() {
		w = r.Free()
	}
	if w == 0 {
		return 0
	}
	if r.n+w > len(r.buf) {
		r.grow(r.n + w)
	}
	end := (r.start + r.n) % len(r.buf)
	first := copy(r.buf[end:], p[:w])
	if first < w {
		copy(r.buf, p[first:w])
	}
	r.n += w
	return w
}

// Peek copies up to len(p) bytes starting at offset off (without
// consuming) and returns the number copied.
func (r *byteRing) Peek(p []byte, off int) int {
	if off < 0 || off >= r.n {
		return 0
	}
	w := len(p)
	if w > r.n-off {
		w = r.n - off
	}
	pos := (r.start + off) % len(r.buf)
	first := copy(p[:w], r.buf[pos:])
	if first < w {
		copy(p[first:w], r.buf)
	}
	return w
}

// Discard consumes n bytes from the front, returning how many were
// actually consumed.
func (r *byteRing) Discard(n int) int {
	if n > r.n {
		n = r.n
	}
	r.n -= n
	if r.n == 0 {
		r.start = 0
	} else {
		r.start = (r.start + n) % len(r.buf)
	}
	return n
}

// Read consumes up to len(p) bytes into p.
func (r *byteRing) Read(p []byte) int {
	n := r.Peek(p, 0)
	r.Discard(n)
	return n
}
