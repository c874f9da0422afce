package hypervisor

import (
	"testing"

	"netkernel/internal/guestlib"
	"netkernel/internal/proto/ipv4"
)

// TestLegacySocketsRefuseBadFDs holds a legacy VM's Sockets to an error
// or a zero result, never a panic, for a descriptor it never issued or
// one the application closed; and a closed listener frees its port.
func TestLegacySocketsRefuseBadFDs(t *testing.T) {
	c := newCluster(t, nil)
	vm, err := c.h1.CreateVM(VMConfig{Name: "l", IP: ipVMA, Mode: ModeLegacy})
	if err != nil {
		t.Fatal(err)
	}
	s := vm.Sockets
	closed := s.Socket(guestlib.Callbacks{})
	s.Close(closed)
	for _, fd := range []int32{-1, 99, closed} {
		if err := s.Connect(fd, ipVMB, 80); err == nil {
			t.Errorf("Connect(%d) succeeded", fd)
		}
		if err := s.Listen(fd, 80, 4); err == nil {
			t.Errorf("Listen(%d) succeeded", fd)
		}
		if err := s.SetCallbacks(fd, guestlib.Callbacks{}); err == nil {
			t.Errorf("SetCallbacks(%d) succeeded", fd)
		}
		if _, ok := s.Accept(fd); ok {
			t.Errorf("Accept(%d) returned a connection", fd)
		}
		if n := s.Send(fd, []byte("x")); n != 0 {
			t.Errorf("Send(%d) took %d bytes", fd, n)
		}
		if n, eof := s.Recv(fd, make([]byte, 8)); n != 0 || !eof {
			t.Errorf("Recv(%d) = %d, %v; want 0, EOF", fd, n, eof)
		}
		s.Close(fd)
	}

	lfd := s.Socket(guestlib.Callbacks{})
	if err := s.Listen(lfd, 80, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(s.Socket(guestlib.Callbacks{}), 80, 4); err == nil {
		t.Error("a second listener took port 80")
	}
	s.Close(lfd)
	if err := s.Listen(s.Socket(guestlib.Callbacks{}), 80, 4); err != nil {
		t.Errorf("port 80 after its listener closed: %v", err)
	}

	// The in-guest stack refuses an unroutable connect at once, as
	// connect(2) does (DESIGN.md §11).
	if err := s.Connect(s.Socket(guestlib.Callbacks{}), ipv4.Addr{192, 168, 9, 9}, 80); err == nil {
		t.Error("Connect to an unroutable address succeeded")
	}
}
