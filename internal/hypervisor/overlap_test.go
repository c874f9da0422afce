package hypervisor

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/stack"
)

// The lifecycle requests that overlap a transition already under way
// (DESIGN.md §12): a module is serving, rebooting or migrating, and a
// request that would start a second transition on top of the first is
// refused or folded into it, so no module ever boots twice for one
// crash.

// echoClient dials the echo server on ipVMB:80 from g and collects what
// comes back, recording the first close error.
type echoClient struct {
	fd       int32
	echoed   []byte
	estErr   error
	closeErr error
}

func dialEcho(t *testing.T, g *guestlib.GuestLib) *echoClient {
	t.Helper()
	ec := &echoClient{estErr: errSentinel, closeErr: errSentinel}
	buf := make([]byte, 64<<10)
	ec.fd = g.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) { ec.estErr = err },
		OnReadable: func() {
			for {
				n, _ := g.Recv(ec.fd, buf)
				if n == 0 {
					return
				}
				ec.echoed = append(ec.echoed, buf[:n]...)
			}
		},
		OnClose: func(err error) { ec.closeErr = err },
	})
	if err := g.Connect(ec.fd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	return ec
}

// dripSender sends payload on fd at most 4 KiB every 2 ms, so a
// 100 KiB transfer spans 50 ms of virtual time.
func dripSender(c *cluster, g *guestlib.GuestLib, fd int32, payload []byte) {
	var tick func()
	tick = func() {
		end := min(len(payload), 4096)
		n := g.Send(fd, payload[:end])
		payload = payload[n:]
		if len(payload) > 0 {
			c.loop.AfterFunc(2*time.Millisecond, tick)
		}
	}
	tick()
}

// servedStacks samples the stack serving a module every millisecond
// for d, and returns every distinct one seen, in order.
func servedStacks(c *cluster, vm *VM, d time.Duration) []*stack.Stack {
	seen := []*stack.Stack{vm.NSM.Stack}
	for i := time.Duration(0); i < d; i += time.Millisecond {
		c.loop.RunFor(time.Millisecond)
		if s := vm.NSM.Stack; s != seen[len(seen)-1] {
			seen = append(seen, s)
		}
	}
	return seen
}

// TestMigrateRefusedWhileSuccessorBoots issues a second MigrateNSM
// while the first one's successor is still booting. The module is
// migrating, so the second request is refused, and the paced 100 KiB
// echo dripping through it completes byte-exact on the one successor.
func TestMigrateRefusedWhileSuccessorBoots(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	startEcho(t, vmb.Guest, 80)
	cli := dialEcho(t, vma.Guest)
	c.loop.RunFor(100 * time.Millisecond)
	if cli.estErr != nil {
		t.Fatalf("OnEstablished: %v", cli.estErr)
	}
	payload := make([]byte, 100<<10)
	for i := range payload {
		payload[i] = byte(i*11 + i>>8)
	}
	dripSender(c, vma.Guest, cli.fd, payload)
	c.loop.RunFor(20 * time.Millisecond)

	old := vmb.NSM
	var first *Migration
	calls := 0
	if _, err := c.h2.MigrateNSM(old, moduleNSM("cubic"), MigrateOptions{}, func(m *Migration) { first = m; calls++ }); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(5 * time.Millisecond) // the successor boots for 10 ms
	if _, err := c.h2.MigrateNSM(old, moduleNSM("bbr"), MigrateOptions{}, nil); err == nil {
		t.Fatal("a second migration of a module already migrating was accepted")
	}
	c.loop.RunFor(2 * time.Second)

	if calls != 1 || first == nil || first.Aborted {
		t.Fatalf("first migration: %d callbacks, record %+v, want one completed", calls, first)
	}
	if !bytes.Equal(cli.echoed, payload) {
		t.Fatalf("echo diverged: got %d of %d bytes", len(cli.echoed), len(payload))
	}
	if cli.closeErr != errSentinel {
		t.Fatalf("client conn closed across the migration: %v", cli.closeErr)
	}
	if n := c.h2.NSMs(); n != 1 {
		t.Fatalf("host has %d NSMs after one migration, want 1", n)
	}
	if vmb.NSM != first.To || vmb.NSM.CC != "cubic" {
		t.Fatal("the VM is not served by the first migration's successor")
	}
}

// TestMigrateRefusedWhileRebooting crashes a VM-form module, whose
// reboot takes 3 s, and asks to migrate it to a hypervisor module while
// it reboots. The request is refused: the module boots once, and the
// migration succeeds once it serves again.
func TestMigrateRefusedWhileRebooting(t *testing.T) {
	c := newCluster(t, nil)
	vmb, err := c.h2.CreateVM(VMConfig{Name: "vmb", IP: ipVMB, Mode: ModeNetKernel, NSM: NSMSpec{Form: FormVM}})
	if err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(3100 * time.Millisecond) // VM-form boot
	n := vmb.NSM

	c.h2.RestartNSM(n)
	c.loop.RunFor(time.Second)
	var rec *Migration
	if _, err := c.h2.MigrateNSM(n, moduleNSM("cubic"), MigrateOptions{}, func(m *Migration) { rec = m }); err == nil {
		t.Fatal("migration of a rebooting module was accepted")
	}
	c.loop.RunFor(3 * time.Second)

	if rec != nil {
		t.Fatalf("a refused migration ran: %+v", rec)
	}
	if n.Restarts != 1 {
		t.Fatalf("Restarts = %d after one crash, want 1", n.Restarts)
	}
	if got := c.h2.Engine.Stats().NSMResets; got != 1 {
		t.Fatalf("NSMResets = %d after one crash, want 1", got)
	}
	if n.Stack.Dead() {
		t.Fatal("the module did not come back")
	}

	// Serving again, the module migrates.
	if _, err := c.h2.MigrateNSM(n, moduleNSM("cubic"), MigrateOptions{}, func(m *Migration) { rec = m }); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(100 * time.Millisecond)
	if rec == nil || rec.Aborted || vmb.NSM != rec.To {
		t.Fatalf("migration after the reboot: %+v", rec)
	}
}

// TestCrashDuringSuccessorBootCancelsMigration crashes a module while
// its migration successor boots. The crash cancels the migration: done
// fires once, aborted; the successor's stack dies and the host forgets
// it; and the module boots exactly once, on its own identity, so every
// stack that ever served it is dead except the current one.
func TestCrashDuringSuccessorBootCancelsMigration(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	startEcho(t, vmb.Guest, 80)
	cli := dialEcho(t, vma.Guest)
	c.loop.RunFor(100 * time.Millisecond)
	if cli.estErr != nil {
		t.Fatalf("OnEstablished: %v", cli.estErr)
	}
	old := vmb.NSM

	var recs []*Migration
	m, err := c.h2.MigrateNSM(old, moduleNSM("cubic"), MigrateOptions{}, func(m *Migration) { recs = append(recs, m) })
	if err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(5 * time.Millisecond) // the successor boots for 10 ms
	c.h2.RestartNSM(old)
	stacks := servedStacks(c, vmb, time.Second)

	if len(recs) != 1 || recs[0] != m || !m.Aborted || m.Err == nil {
		t.Fatalf("done fired %d times (record %+v), want once, aborted", len(recs), m)
	}
	if old.Restarts != 1 {
		t.Fatalf("Restarts = %d after one crash, want 1", old.Restarts)
	}
	if got := c.h2.Engine.Stats().NSMResets; got != 1 {
		t.Fatalf("NSMResets = %d after one crash, want 1", got)
	}
	if vmb.NSM != old {
		t.Fatal("the VM moved to the cancelled migration's successor")
	}
	if !m.To.Stack.Dead() {
		t.Fatal("the cancelled successor's stack is alive")
	}
	if n := c.h2.NSMs(); n != 1 {
		t.Fatalf("host has %d NSMs after the cancelled migration, want 1", n)
	}
	for i, s := range stacks[:len(stacks)-1] {
		if !s.Dead() {
			t.Fatalf("stack %d of %d that served the module is still alive", i+1, len(stacks))
		}
	}
	if cur := stacks[len(stacks)-1]; cur != old.Stack || cur.Dead() {
		t.Fatal("the module is not served by one live stack")
	}
}
