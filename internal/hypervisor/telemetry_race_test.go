package hypervisor

import (
	"sync"
	"testing"
	"time"

	"netkernel/internal/guestlib"
)

// TestCopyReportConcurrentWithPipeline is the -race gate for the
// observability counters: a monitoring goroutine hammers
// VM.CopyReport(), both hosts' registry Snapshot() and every layer's
// Stats() — GuestLib, ServiceLib, the NSM stacks, the CoreEngine and
// the switch — while the event loop pumps a bulk transfer on the test
// goroutine. Every counter those surfaces touch must be an atomic; a
// plain counter field fails this test under `go test -race`, its read
// in the monitor racing its write on the hot path.
func TestCopyReportConcurrentWithPipeline(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	// Sink server on vmb: drain everything.
	srvG := vmb.Guest
	buf := make([]byte, 64<<10)
	lfd := srvG.Socket(guestlib.Callbacks{})
	srvG.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		fd, ok := srvG.Accept(lfd)
		if !ok {
			return
		}
		drain := func() {
			for {
				n, _ := srvG.Recv(fd, buf)
				if n == 0 {
					return
				}
			}
		}
		srvG.SetCallbacks(fd, guestlib.Callbacks{OnReadable: drain})
		drain()
	}})
	if err := srvG.Listen(lfd, 80, 16); err != nil {
		t.Fatal(err)
	}

	// Pump client on vma: keep the send buffer full.
	cliG := vma.Guest
	out := make([]byte, 16<<10)
	var cfd int32
	pump := func() {
		for cliG.Send(cfd, out) > 0 {
		}
	}
	cfd = cliG.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err == nil {
				pump()
			}
		},
		OnWritable: pump,
	})
	if err := cliG.Connect(cfd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, vm := range []*VM{vma, vmb} {
				rep := vm.CopyReport()
				// The reads must at least be internally coherent:
				// cumulative counters never exceed what Sub from zero
				// reports (a smoke check that the snapshot didn't tear
				// into garbage).
				if rep.Sub(CopyReport{}) != rep {
					t.Error("CopyReport not self-consistent")
					return
				}
				for _, n := range vm.NSMs {
					_ = n.Stack.Stats()
				}
				for _, svc := range vm.Services {
					_ = svc.Stats()
				}
				_ = vm.Guest.Stats()
			}
			for _, h := range []*Host{c.h1, c.h2} {
				_ = h.Snapshot()
				_ = h.Engine.Stats()
				_ = h.Switch.Stats()
			}
		}
	}()

	// Drive the pipeline while the monitor races it.
	for i := 0; i < 10; i++ {
		c.loop.RunFor(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	rep := vma.CopyReport()
	if rep.PayloadTx == 0 {
		t.Fatal("no payload moved; the race test exercised nothing")
	}
	if got := vmb.CopyReport(); got.PayloadRx == 0 {
		t.Fatal("server VM recorded no received payload")
	}
}
