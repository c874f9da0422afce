package tcp

import "netkernel/internal/fifo"

// A Releaser takes back memory it lent to a connection with WriteOwned.
// The span carries the Releaser and the token the caller handed over
// with it (for a huge-page chunk, the chunk's offset): the hand-off is
// data, not a closure, so lending a chunk allocates nothing.
type Releaser interface {
	Release(token uint64)
}

// span is one region of the send buffer. Owned spans hold bytes copied
// in by Write and may be extended in place; borrowed spans alias memory
// the caller handed over via WriteOwned (a huge-page chunk, in
// NetKernel's case) and are handed back to their Releaser when the last
// covering byte leaves the buffer.
type span struct {
	data  []byte
	rel   Releaser
	token uint64
	owned bool
}

// release hands a borrowed span back to its lender.
func (sp *span) release() {
	if sp.rel != nil {
		sp.rel.Release(sp.token)
	}
}

// sendBuffer is a scatter-gather replacement for the send-side byteRing:
// a FIFO of spans addressed by byte offset from the unacknowledged
// front. Segments (including retransmissions) take contiguous views into
// the spans instead of copying payload out, and cumulative-ACK Discard
// releases a borrowed span only once every byte it covers has been
// discarded — which is what makes handing a refcounted huge-page chunk
// to the connection safe across retransmissions.
type sendBuffer struct {
	capacity int
	n        int // total buffered bytes
	// spans is a ring, so the cumulative ACK pops spans in O(1) and a
	// buffer that drains and refills keeps its storage.
	spans fifo.Ring[span]
	// Scan cache: span cacheIdx starts at buffer offset cacheStart.
	// Transmits walk the buffer sequentially, so seek resumes from the
	// last hit instead of scanning from the front — with a deep buffer
	// full of chunk-sized borrowed spans a cold scan is O(spans) per
	// segment, which dominated the 40 GbE experiments.
	cacheIdx   int
	cacheStart int
}

// reset readies an empty buffer (new, or emptied by ReleaseAll) for a
// connection, keeping the span ring's storage.
func (b *sendBuffer) reset(capacity int) {
	if capacity <= 0 {
		panic("tcp: sendBuffer capacity must be positive")
	}
	b.capacity, b.n = capacity, 0
	b.cacheIdx, b.cacheStart = 0, 0
}

// Cap returns the configured capacity in bytes.
func (b *sendBuffer) Cap() int { return b.capacity }

// Len returns the buffered byte count.
func (b *sendBuffer) Len() int { return b.n }

// Free returns the remaining capacity.
func (b *sendBuffer) Free() int { return b.capacity - b.n }

// Empty reports whether the buffer holds no bytes.
func (b *sendBuffer) Empty() bool { return b.n == 0 }

// Write copies p into owned storage, coalescing into the tail span when
// it is owned, and returns the bytes accepted (bounded by Free).
func (b *sendBuffer) Write(p []byte) int {
	n := min(len(p), b.Free())
	if n == 0 {
		return 0
	}
	if b.spans.Len() > 0 && b.spans.Back().owned {
		tail := b.spans.Back()
		tail.data = append(tail.data, p[:n]...)
	} else {
		d := make([]byte, n)
		copy(d, p)
		b.spans.Push(span{data: d, owned: true})
	}
	b.n += n
	return n
}

// WriteOwned appends a borrowed span without copying. It is
// all-or-nothing: on false the caller keeps ownership (and rel is not
// called); on true the buffer owns the span and will call
// rel.Release(token) exactly once, when the last covering byte is
// discarded (cumulatively ACKed) or the buffer is torn down. rel may be
// nil for memory nobody takes back.
func (b *sendBuffer) WriteOwned(data []byte, rel Releaser, token uint64) bool {
	sp := span{data: data, rel: rel, token: token}
	if len(data) == 0 {
		sp.release()
		return true
	}
	if len(data) > b.Free() {
		return false
	}
	b.spans.Push(sp)
	b.n += len(data)
	return true
}

// seek locates offset off: the span index and the offset within it.
// Amortized O(1) for the sequential access pattern of trySend; a
// backward jump (retransmission) restarts the scan from the front.
func (b *sendBuffer) seek(off int) (int, int) {
	i, base := 0, 0
	if b.cacheIdx < b.spans.Len() && off >= b.cacheStart {
		i, base = b.cacheIdx, b.cacheStart
	}
	rel := off - base
	for ; i < b.spans.Len(); i++ {
		n := len(b.spans.At(i).data)
		if rel < n {
			b.cacheIdx, b.cacheStart = i, off-rel
			return i, rel
		}
		rel -= n
	}
	return b.spans.Len(), 0
}

// Contig returns a view of the longest contiguous run starting at
// offset off, at most n bytes, without copying. The view aliases buffer
// memory and is only valid until the next buffer mutation; transmit
// paths consume it synchronously (the Output contract).
func (b *sendBuffer) Contig(off, n int) []byte {
	if off < 0 || off >= b.n || n <= 0 {
		return nil
	}
	if off+n > b.n {
		n = b.n - off
	}
	i, rel := b.seek(off)
	if i == b.spans.Len() {
		return nil
	}
	data := b.spans.At(i).data
	return data[rel:min(rel+n, len(data))]
}

// Peek copies up to len(p) bytes starting at offset off into p,
// returning the bytes copied. Retained for the rare consumers that need
// a stable copy (window probes).
func (b *sendBuffer) Peek(p []byte, off int) int {
	if off < 0 || off >= b.n {
		return 0
	}
	want := min(len(p), b.n-off)
	i, rel := b.seek(off)
	got := 0
	for got < want && i < b.spans.Len() {
		got += copy(p[got:want], b.spans.At(i).data[rel:])
		rel = 0
		i++
	}
	return got
}

// Discard drops n bytes from the front (the cumulative-ACK edge),
// releasing every borrowed span whose last byte is passed. Returns the
// bytes actually discarded.
func (b *sendBuffer) Discard(n int) int {
	if n > b.n {
		n = b.n
	}
	if n <= 0 {
		return 0
	}
	left, popped := n, 0
	for left > 0 {
		sp := b.spans.Front()
		if left < len(sp.data) {
			// Reslice the consumed prefix away instead of tracking a
			// head offset: for the owned tail span this is what bounds
			// memory under a continuous stream — append regrows the
			// backing array from the live suffix (at most the buffer
			// capacity), abandoning the consumed prefix, instead of
			// extending one ever-growing array.
			sp.data = sp.data[left:]
			left = 0
			break
		}
		left -= len(sp.data)
		sp.release()
		b.spans.Pop()
		popped++
	}
	// Shift the scan cache down with the front edge.
	if popped > b.cacheIdx {
		b.cacheIdx, b.cacheStart = 0, 0
	} else {
		b.cacheIdx -= popped
		if b.cacheStart -= n; b.cacheStart < 0 {
			b.cacheStart = 0
		}
	}
	b.n -= n
	return n
}

// ReleaseAll releases every borrowed span and empties the buffer.
// Called on connection teardown so borrowed chunks return to their pool
// even when the connection dies with unacknowledged data.
func (b *sendBuffer) ReleaseAll() {
	for i := 0; i < b.spans.Len(); i++ {
		b.spans.At(i).release()
	}
	b.spans.Clear()
	b.n = 0
	b.cacheIdx, b.cacheStart = 0, 0
}
