package hypervisor

import (
	"fmt"

	"netkernel/internal/guestlib"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/stack"
)

// Sockets is the socket API a tenant application calls, so one program
// runs on the in-guest stack or on an NSM (§3): a NetKernel VM's is its
// GuestLib, a legacy VM's legacySockets (DESIGN.md §11). Poller,
// AcceptBatch, SetSockOpt and ReadAvailable stay GuestLib's.
type Sockets interface {
	Socket(cbs guestlib.Callbacks) int32
	Connect(fd int32, addr ipv4.Addr, port uint16) error
	Listen(fd int32, port uint16, backlog int) error
	Accept(lfd int32) (fd int32, ok bool)
	SetCallbacks(fd int32, cbs guestlib.Callbacks) error
	Send(fd int32, p []byte) int
	Recv(fd int32, buf []byte) (n int, eof bool)
	Close(fd int32)
}

// legacySockets is Sockets over a legacy VM's in-guest stack: each call
// is the stack or tcp call it names, made at once, scheduling nothing.
type legacySockets struct {
	stack  *stack.Stack
	socks  map[int32]*legacySock
	nextFD int32
}

// legacySock is an open descriptor and its application's callbacks.
type legacySock struct {
	cbs  guestlib.Callbacks
	conn *tcp.Conn
	lst  *tcp.Listener
}

func (l *legacySockets) Socket(cbs guestlib.Callbacks) int32 {
	l.nextFD++
	l.socks[l.nextFD] = &legacySock{cbs: cbs}
	return l.nextFD
}

func (l *legacySockets) open(fd int32) (*legacySock, error) {
	if k := l.socks[fd]; k != nil {
		return k, nil
	}
	return nil, fmt.Errorf("legacy sockets: bad fd %d", fd)
}

func (l *legacySockets) Connect(fd int32, addr ipv4.Addr, port uint16) error {
	k, err := l.open(fd)
	if err == nil {
		k.conn, err = l.stack.Dial(tcp.AddrPort{Addr: addr, Port: port}, stack.SocketOptions{OnEstablished: k.cbs.OnEstablished})
		l.SetCallbacks(fd, k.cbs)
	}
	return err
}

func (l *legacySockets) Listen(fd int32, port uint16, backlog int) error {
	k, err := l.open(fd)
	if err == nil {
		k.lst, err = l.stack.Listen(port, backlog, stack.SocketOptions{})
		l.SetCallbacks(fd, k.cbs)
	}
	return err
}

func (l *legacySockets) Accept(lfd int32) (int32, bool) {
	if k := l.socks[lfd]; k != nil && k.lst != nil {
		if c, ok := k.lst.Accept(); ok {
			fd := l.Socket(guestlib.Callbacks{})
			l.socks[fd].conn = c
			return fd, true
		}
	}
	return 0, false
}

func (l *legacySockets) SetCallbacks(fd int32, cbs guestlib.Callbacks) error {
	k, err := l.open(fd)
	if err == nil {
		k.cbs = cbs
		if k.conn != nil {
			k.conn.SetCallbacks(cbs.OnReadable, cbs.OnWritable, cbs.OnClose)
		} else if k.lst != nil {
			k.lst.OnAcceptable = cbs.OnAcceptable
		}
	}
	return err
}

func (l *legacySockets) Send(fd int32, p []byte) int {
	if k := l.socks[fd]; k != nil && k.conn != nil {
		return k.conn.Write(p)
	}
	return 0
}

// Recv reads fd's connection; a closed fd reads as EOF.
func (l *legacySockets) Recv(fd int32, buf []byte) (int, bool) {
	if k := l.socks[fd]; k != nil && k.conn != nil {
		return k.conn.Read(buf)
	}
	return 0, true
}

// Close retires fd; a listener or an idle socket ends at once, silently.
func (l *legacySockets) Close(fd int32) {
	k := l.socks[fd]
	delete(l.socks, fd)
	switch {
	case k == nil:
	case k.conn != nil:
		k.conn.SetCallbacks(k.lastWord, nil, k.cbs.OnClose)
		k.conn.Close()
	case k.lst != nil:
		l.stack.CloseListener(k.lst.Addr().Port)
	}
}

// lastWord is a closed connection's OnReadable. As on GuestLib, a closed
// fd hears only its peer's close: OnReadable for the FIN, then OnClose.
func (k *legacySock) lastWord() {
	if st := k.conn.State(); st == tcp.StateTimeWait || st == tcp.StateClosing {
		k.conn.SetCallbacks(nil, nil, nil)
		if k.cbs.OnReadable != nil {
			k.cbs.OnReadable()
		}
		if k.cbs.OnClose != nil {
			k.cbs.OnClose(nil)
		}
	}
}
