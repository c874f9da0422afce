package tcp

import "netkernel/internal/fifo"

// NewPassive builds a passive-open connection answering the given SYN:
// it transmits the SYN-ACK immediately. See Conn.Passive.
func NewPassive(cfg Config, syn *Header, ecnRequested bool) *Conn {
	c := new(Conn)
	c.Passive(cfg, syn, ecnRequested)
	return c
}

// A Listener is the accept queue for one listening port. The owning
// stack creates passive connections on inbound SYNs and deposits them
// here once established.
type Listener struct {
	local      AddrPort
	maxBacklog int
	backlog    fifo.Ring[*Conn]

	// OnAcceptable fires when Accept transitions from empty to ready.
	OnAcceptable func()
}

// NewListener builds a listener; backlog <= 0 selects 128.
func NewListener(local AddrPort, backlog int) *Listener {
	if backlog <= 0 {
		backlog = 128
	}
	return &Listener{local: local, maxBacklog: backlog}
}

// Addr returns the listening endpoint.
func (l *Listener) Addr() AddrPort { return l.local }

// Full reports whether the backlog is at capacity (new SYNs should be
// dropped, the classic listen-queue overflow).
func (l *Listener) Full() bool { return l.backlog.Len() >= l.maxBacklog }

// MaxBacklog returns the backlog capacity.
func (l *Listener) MaxBacklog() int { return l.maxBacklog }

// Deposit queues an established connection for Accept.
func (l *Listener) Deposit(c *Conn) {
	wasEmpty := l.backlog.Len() == 0
	l.backlog.Push(c)
	if wasEmpty && l.OnAcceptable != nil {
		l.OnAcceptable()
	}
}

// Accept pops the oldest established connection, reporting false when
// none is ready.
func (l *Listener) Accept() (*Conn, bool) {
	if l.backlog.Len() == 0 {
		return nil, false
	}
	c := *l.backlog.Front()
	l.backlog.Pop()
	return c, true
}

// Pending returns the number of connections awaiting Accept.
func (l *Listener) Pending() int { return l.backlog.Len() }
