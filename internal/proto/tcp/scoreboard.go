package tcp

// scoreboard is the sender's record of transmitted segments not yet
// cumulatively acknowledged, oldest first: a ring of segMeta values that
// grows by doubling, so tracking a segment allocates nothing once the
// ring has reached the window's size and a cumulative ACK costs only the
// segments it retires. sacked is the payload of the entries marked
// sacked, kept in step by every method that marks or retires one, which
// is what lets Conn.outstanding answer without a scan.
type scoreboard struct {
	buf    []segMeta // len is zero or a power of two
	head   int       // index in buf of the oldest entry
	n      int
	sacked int
}

func (b *scoreboard) len() int { return b.n }

// reset empties the scoreboard, keeping its storage.
func (b *scoreboard) reset() { b.head, b.n, b.sacked = 0, 0, 0 }

// at returns the i-th oldest entry. The pointer is good until the next
// push.
func (b *scoreboard) at(i int) *segMeta {
	return &b.buf[(b.head+i)&(len(b.buf)-1)]
}

// appendTo appends the entries to dst, oldest first.
func (b *scoreboard) appendTo(dst []segMeta) []segMeta {
	for i := 0; i < b.n; i++ {
		dst = append(dst, *b.at(i))
	}
	return dst
}

// push tracks a newly transmitted segment.
func (b *scoreboard) push(m segMeta) {
	if b.n == len(b.buf) {
		grown := b.appendTo(make([]segMeta, 0, max(8, 2*len(b.buf))))
		b.buf, b.head = grown[:cap(grown)], 0
	}
	b.n++
	*b.at(b.n - 1) = m
	if m.sacked {
		b.sacked += m.length
	}
}

// ackUpTo retires every segment that ends at or below the cumulative
// ack. It returns the newest one retired (for RTT and rate sampling) and
// the payload bytes among them that SACK had not already counted
// delivered.
func (b *scoreboard) ackUpTo(ack uint32) (newest segMeta, ok bool, fresh int) {
	k := 0
	for ; k < b.n; k++ {
		s := b.at(k)
		end := s.seq + uint32(s.length)
		if s.fin {
			end++
		}
		if seqGT(end, ack) {
			break
		}
		if s.sacked {
			b.sacked -= s.length
		} else {
			fresh += s.length
		}
	}
	if k == 0 {
		return segMeta{}, false, 0
	}
	newest = *b.at(k - 1)
	b.head = (b.head + k) & (len(b.buf) - 1)
	b.n -= k
	return newest, true, fresh
}

// sack marks the segments a SACK block covers whole and returns the
// payload bytes newly marked.
func (b *scoreboard) sack(blk SACKBlock) (newly int) {
	for i := 0; i < b.n; i++ {
		s := b.at(i)
		// A zero-length (FIN-only) segment is never SACK-covered: its
		// degenerate interval fits inside any block whose End touches
		// finSeq, but a receiver that SACKs the final data segment has
		// said nothing about the FIN. Marking it sacked here wedges the
		// close — retransmitFront skips sacked segments and trySend
		// refuses to run post-FIN, so every RTO becomes a no-op.
		if s.length == 0 {
			continue
		}
		if !s.sacked && seqGEQ(s.seq, blk.Start) && seqLEQ(s.seq+uint32(s.length), blk.End) {
			s.sacked = true
			newly += s.length
		}
	}
	b.sacked += newly
	return newly
}
