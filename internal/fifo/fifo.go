// Package fifo provides Ring, the growable circular FIFO the conveyor's
// per-connection queues share. Popping advances a head index instead of
// reslicing, so a queue that drains and refills keeps its storage: in
// steady state pushing and popping allocate nothing.
package fifo

// Ring is a FIFO of T. The zero value is an empty ring. Not safe for
// concurrent use.
type Ring[T any] struct {
	buf     []T // circular; len is zero or a power of two
	head, n int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th element from the front, 0 <= i < Len. The pointer
// is valid until the next Push.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Front returns the oldest element; the ring must not be empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Back returns the newest element; the ring must not be empty.
func (r *Ring[T]) Back() *T { return r.At(r.n - 1) }

// Push appends v at the back.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop drops the front element, zeroing its slot so the ring pins nothing
// it no longer holds. The ring must not be empty.
func (r *Ring[T]) Pop() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// Clear empties the ring, keeping its storage.
func (r *Ring[T]) Clear() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// grow doubles the full buffer, unrolling it so head is slot 0. It
// starts at one slot, as append does: most per-connection queues of a
// short flow never hold more than one element.
func (r *Ring[T]) grow() {
	next := make([]T, max(1, 2*len(r.buf)))
	k := copy(next, r.buf[r.head:])
	copy(next[k:], r.buf[:r.head])
	r.buf, r.head = next, 0
}
