package stack

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"netkernel/internal/netsim"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/sim"
)

// steeringGolden is the order in which stack a's directional flows drew
// their cores in TestRoundRobinCoresSteering, and the core each drew.
var steeringGolden = []string{
	"tx 49152>80 core 0", "rx 80>49152 core 1",
	"tx 49153>80 core 2", "rx 80>49153 core 3",
	"tx 49154>80 core 0", "rx 80>49154 core 1",
	"tx 49155>80 core 2", "rx 80>49155 core 3",
	"tx 49156>80 core 0", "rx 80>49156 core 1",
}

// An unsharded stack pins flows to cores by first sight: each flow hash
// draws the next core of a 4-core CPU, wrapping at Cores(); a flow's two
// directions hash apart and so draw separately; every later frame of a
// direction is charged to the core it drew; and a 4-tuple reused after
// its TIME_WAIT gets its old core back, because the table keeps every
// hash it has seen.
func TestRoundRobinCoresSteering(t *testing.T) {
	loop := sim.NewLoop()
	mk := func(name string, seed uint64) *Stack {
		return New(Config{Clock: loop, RNG: sim.NewRNG(seed), Name: name, MSL: 10 * time.Millisecond,
			CPU: netsim.NewCPU(loop, 4), PerPacketCost: 470 * time.Nanosecond})
	}
	a, b := mk("a", 1), mk("b", 2)

	// Every frame a charges, in either direction, goes through charged:
	// the first frame of a direction records its draw, every later one
	// must land on the same core.
	var draws []string
	drawn := map[string]int{}
	charged := func(dir string, f []byte, hash uint32) {
		t.Helper()
		core, ok := a.flowCore.get(hash)
		if !ok {
			t.Fatalf("%s frame charged to no core", dir)
		}
		flow := fmt.Sprintf("%s %d>%d", dir, binary.BigEndian.Uint16(f[34:]), binary.BigEndian.Uint16(f[36:]))
		if c, seen := drawn[flow]; !seen {
			drawn[flow] = int(core)
			draws = append(draws, fmt.Sprintf("%s core %d", flow, core))
		} else if c != int(core) {
			t.Fatalf("%s moved from core %d to core %d", flow, c, core)
		}
	}
	a.AttachInterface(macA, ipA, 1500, 24, ipv4.Addr{}, func(f []byte) {
		charged("tx", f, rssHash(f))
		b.DeliverFrame(f)
	})
	b.AttachInterface(macB, ipB, 1500, 24, ipv4.Addr{}, func(f []byte) {
		hash, peek := rssHash(f), append([]byte(nil), f[:38]...)
		a.DeliverFrame(f) // charges the frame: a draws its core here
		charged("rx", peek, hash)
	})
	a.arpCache.Learn(ipB, macB)
	b.arpCache.Learn(ipA, macA)
	l, err := b.Listen(80, 16, SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (client, server *tcp.Conn) {
		t.Helper()
		c, err := a.Dial(tcp.AddrPort{Addr: ipB, Port: 80}, SocketOptions{})
		if err != nil {
			t.Fatal(err)
		}
		loop.RunFor(time.Millisecond)
		srv, ok := l.Accept()
		if !ok || c.State() != tcp.StateEstablished {
			t.Fatalf("dial from port %d: client %v, accepted %v", c.LocalAddr().Port, c.State(), ok)
		}
		srv.SetReceiveSink(func(p []byte) int { return len(p) })
		return c, srv
	}

	// Five flows, dialled one at a time so the draws happen in dial order.
	var clients, servers []*tcp.Conn
	for i := 0; i < 5; i++ {
		c, s := dial()
		clients, servers = append(clients, c), append(servers, s)
	}
	for i, d := range draws {
		if want := fmt.Sprintf("core %d", i%a.cfg.CPU.Cores()); !strings.HasSuffix(d, want) {
			t.Errorf("draw %d is %q, want the next core round robin (%s)", i, d, want)
		}
	}
	// Traffic on every flow at once: later frames keep their cores.
	for _, c := range clients {
		c.Write(make([]byte, 16<<10))
	}
	loop.RunFor(10 * time.Millisecond)

	// The first flow closes on both sides and outlives its TIME_WAIT;
	// its 4-tuple is then dialled again.
	first, table := clients[0], a.flowCore.size()
	clients[0].Close()
	servers[0].Close()
	loop.RunFor(50 * time.Millisecond)
	if first.State() != tcp.StateClosed || servers[0].State() != tcp.StateClosed {
		t.Fatalf("first flow after close: client %v, server %v, want both CLOSED", first.State(), servers[0].State())
	}
	port := first.LocalAddr().Port
	a.nextPort = port
	again, _ := dial()
	if again.LocalAddr().Port != port {
		t.Fatalf("redial took port %d, want %d", again.LocalAddr().Port, port)
	}
	again.Write(make([]byte, 16<<10))
	loop.RunFor(10 * time.Millisecond)
	if a.flowCore.size() != table {
		t.Errorf("the reused 4-tuple grew the table from %d to %d hashes", table, a.flowCore.size())
	}

	if strings.Join(draws, "\n") != strings.Join(steeringGolden, "\n") {
		t.Errorf("draws:\n%s\nwant:\n%s", strings.Join(draws, "\n"), strings.Join(steeringGolden, "\n"))
	}
}
