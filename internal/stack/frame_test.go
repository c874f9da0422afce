package stack

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/netsim"
	"netkernel/internal/proto/arp"
	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/sim"
)

var (
	macA = ethernet.MAC{2, 0, 0, 0, 0, 1}
	macB = ethernet.MAC{2, 0, 0, 0, 0, 2}
)

// poisonFrames turns the pool's release check on for one test and seeds
// the free list with poisoned buffers, so a frame built on stale bytes or
// read after release shows.
func poisonFrames(t *testing.T) {
	t.Helper()
	framepool.Poison(true)
	t.Cleanup(func() { framepool.Poison(false) })
	var held [][]byte
	for i := 0; i < 8; i++ {
		held = append(held, framepool.Get(framepool.Cap))
	}
	for _, f := range held {
		framepool.Put(f)
	}
}

// captureStack is a stack whose transmitted frames are copied into sent
// and released, with ipB already resolved.
func captureStack(t *testing.T, mtu int) (s *Stack, sent *[][]byte) {
	t.Helper()
	sent = new([][]byte)
	s = New(Config{Clock: sim.NewLoop(), RNG: sim.NewRNG(1), Name: "a"})
	s.AttachInterface(macA, ipA, mtu, 24, ipv4.Addr{}, func(f []byte) {
		*sent = append(*sent, append([]byte(nil), f...))
		framepool.Put(f)
	})
	s.arpCache.Learn(ipB, macB)
	return s, sent
}

// oracleFrames is the three-step build the stack used to perform for
// every packet, kept as the reference: the transport's allocating
// Marshal, ipv4.Fragment, then an Ethernet header copied in front.
func oracleFrames(t *testing.T, s *Stack, proto, tos uint8, l4 []byte) [][]byte {
	t.Helper()
	h := ipv4.Header{TOS: tos, ID: s.ipID + 1, TTL: 64, Proto: proto, Src: ipA, Dst: ipB}
	pkts, err := ipv4.Fragment(h, l4, s.iface.MTU)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, p := range pkts {
		f := make([]byte, ethernet.HeaderLen+len(p))
		eh := ethernet.Header{Dst: macB, Src: macA, Type: ethernet.TypeIPv4}
		eh.Marshal(f)
		copy(f[ethernet.HeaderLen:], p)
		frames = append(frames, f)
	}
	return frames
}

func checkFrames(t *testing.T, name string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames on the wire, oracle builds %d", name, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: frame %d differs from the oracle\n got %x\nwant %x", name, i, got[i], want[i])
		}
	}
}

// The in-place build puts exactly the bytes on the wire that
// Header.Marshal → ipv4.Fragment → Ethernet header does, for every kind
// of segment the connection emits, with the pool handing out dirty
// buffers. A datagram larger than the MTU is refused.
func TestFrameBytesMatchThreeCopyOracle(t *testing.T) {
	poisonFrames(t)
	payload := make([]byte, 1460)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	sack := tcp.Options{NumSACK: 3}
	sack.SACK[0] = tcp.SACKBlock{Start: 5000, End: 6460}
	sack.SACK[1] = tcp.SACKBlock{Start: 9000, End: 9100}
	sack.SACK[2] = tcp.SACKBlock{Start: 0xfffffff0, End: 12}
	segments := []struct {
		name    string
		h       tcp.Header
		payload []byte
		tos     uint8
	}{
		{"data", tcp.Header{SrcPort: 49152, DstPort: 80, Seq: 1000, Ack: 2000, Flags: tcp.FlagACK | tcp.FlagPSH, Window: 512}, payload, 0},
		{"data ECT(0)", tcp.Header{SrcPort: 49152, DstPort: 80, Seq: 2460, Ack: 2000, Flags: tcp.FlagACK, Window: 512}, payload[:999], ipv4.ECNECT0},
		{"ACK+SACK", tcp.Header{SrcPort: 49152, DstPort: 80, Seq: 1000, Ack: 3000, Flags: tcp.FlagACK | tcp.FlagECE, Window: 17, Opts: sack}, nil, 0},
		{"SYN with options", tcp.Header{SrcPort: 49152, DstPort: 80, Seq: 77, Flags: tcp.FlagSYN | tcp.FlagECE | tcp.FlagCWR, Window: 65535,
			Opts: tcp.Options{MSS: 1460, WScale: 5, WScaleOK: true, SACKPermitted: true}}, nil, 0},
		{"one odd byte", tcp.Header{SrcPort: 49152, DstPort: 80, Seq: 9, Ack: 1, Flags: tcp.FlagACK, Window: 1}, payload[:1], 0},
	}
	s, sent := captureStack(t, 1500)
	for _, seg := range segments {
		want := oracleFrames(t, s, ipv4.ProtoTCP, seg.tos, seg.h.Marshal(ipA, ipB, seg.payload))
		*sent = nil
		h := seg.h
		s.sendTCP(ipA, ipB, &h, seg.payload, seg.tos)
		checkFrames(t, seg.name, *sent, want)
	}

	// The stack does not fragment: a datagram larger than the MTU is
	// refused, and its frame goes back to the pool unsent.
	live := framepool.Live()
	*sent = nil
	if err := s.sendIPv4(ipB, ipv4.ProtoTCP, 0, framepool.Get(l4Offset+s.iface.MTU)); err == nil {
		t.Error("a datagram over the MTU was accepted")
	}
	if len(*sent) != 0 || framepool.Live() != live {
		t.Errorf("over-MTU datagram: %d frames sent, %d frames not released", len(*sent), framepool.Live()-live)
	}
}

// synTo builds a frame carrying a SYN from ipB to a port of s nobody
// listens on: processing it would count dropped_no_socket and answer RST.
func synTo(t *testing.T, port uint16) []byte {
	t.Helper()
	h := tcp.Header{SrcPort: 40000, DstPort: port, Seq: 1, Flags: tcp.FlagSYN, Window: 1000}
	seg := h.Marshal(ipB, ipA, nil)
	pkts, err := ipv4.Fragment(ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: ipB, Dst: ipA}, seg, 1500)
	if err != nil {
		t.Fatal(err)
	}
	f := framepool.Get(ethernet.HeaderLen + len(pkts[0]))
	eh := ethernet.Header{Dst: macA, Src: macB, Type: ethernet.TypeIPv4}
	eh.Marshal(f)
	copy(f[ethernet.HeaderLen:], pkts[0])
	return f
}

// A frame waiting for its CPU core when the stack is killed dies there:
// a crashed stack neither processes what arrived nor transmits what it
// had queued.
func TestKillDropsFramesQueuedOnCPU(t *testing.T) {
	poisonFrames(t)
	loop := sim.NewLoop()
	s := New(Config{Clock: loop, RNG: sim.NewRNG(1), Name: "a",
		CPU: netsim.NewCPU(loop, 1), PerPacketCost: 470 * time.Nanosecond})
	sent := 0
	s.AttachInterface(macA, ipA, 1500, 24, ipv4.Addr{}, func(f []byte) { sent++; framepool.Put(f) })
	s.arpCache.Learn(ipB, macB)
	live := framepool.Live()

	// Queued for the core, the first at its head, the rest behind it: rx...
	for port := uint16(81); port < 84; port++ {
		s.DeliverFrame(synTo(t, port))
	}
	if _, err := s.Dial(tcp.AddrPort{Addr: ipB, Port: 80}, SocketOptions{}); err != nil { // ...and tx
		t.Fatal(err)
	}
	if st := s.Stats(); st.FramesIn != 3 || st.FramesOut != 1 || sent != 0 {
		t.Fatalf("before the kill: frames in %d, out %d, on the wire %d; want 3, 1, 0 (all queued)", st.FramesIn, st.FramesOut, sent)
	}
	s.Kill()
	loop.Run()

	st := s.Stats()
	if sent != 0 {
		t.Errorf("dead stack transmitted %d frames", sent)
	}
	if st.DroppedDead != 3 || st.DroppedNoSocket != 0 || st.TCPSegsIn != 0 {
		t.Errorf("queued rx frames: dropped_dead %d, dropped_no_socket %d, tcp_segs_in %d; want 3, 0, 0", st.DroppedDead, st.DroppedNoSocket, st.TCPSegsIn)
	}
	if st.IPOut != 1 {
		t.Errorf("ip_out %d, want 1 (the SYN alone, no RST from the grave)", st.IPOut)
	}
	if n := framepool.Live() - live; n != 0 {
		t.Errorf("%d frames not released", n)
	}
}

// cpuPair is two stacks, each charging its packets to a CPU, wired
// transmit-to-deliver with nothing in between, and one established
// connection whose server side consumes through a receive sink.
func cpuPair(tb testing.TB) (loop *sim.Loop, a, b *Stack, client *tcp.Conn) {
	tb.Helper()
	loop = sim.NewLoop()
	mk := func(name string, seed uint64) *Stack {
		return New(Config{Clock: loop, RNG: sim.NewRNG(seed), Name: name,
			CPU: netsim.NewCPU(loop, 2), PerPacketCost: 470 * time.Nanosecond})
	}
	a, b = mk("a", 1), mk("b", 2)
	a.AttachInterface(macA, ipA, 1500, 24, ipv4.Addr{}, func(f []byte) { b.DeliverFrame(f) })
	b.AttachInterface(macB, ipB, 1500, 24, ipv4.Addr{}, func(f []byte) { a.DeliverFrame(f) })
	l, err := b.Listen(80, 16, SocketOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	l.OnAcceptable = func() {
		c, _ := l.Accept()
		c.SetReceiveSink(func(p []byte) int { return len(p) })
	}
	client, err = a.Dial(tcp.AddrPort{Addr: ipB, Port: 80}, SocketOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	loop.RunFor(10 * time.Millisecond)
	if client.State() != tcp.StateEstablished {
		tb.Fatalf("client %v", client.State())
	}
	return loop, a, b, client
}

// Steady state, end to end: a data segment from tcp.Conn through the
// connection's Output, the sender's CPU charge, the peer's DeliverFrame,
// its CPU charge and TCP input, and the pure ACK all the way back, allocate
// nothing — the frames cycle through the pool, the header and the ACK
// sample are the connection's own. The stream is one borrowed span
// written up front, so the send buffer's span list stays out of it.
func TestAllocsSegmentAndAckEndToEnd(t *testing.T) {
	loop, a, b, client := cpuPair(t)
	// Stock the pool beyond what slow start will put in flight, so the
	// gate measures the cycle, not the pool's growth.
	var stock [][]byte
	for i := 0; i < 1024; i++ {
		stock = append(stock, framepool.Get(framepool.Cap))
	}
	for _, f := range stock {
		framepool.Put(f)
	}
	live := framepool.Live()
	if !client.WriteOwned(make([]byte, 1<<20), nil, 0) {
		t.Fatal("send buffer refused the stream")
	}
	slice := func() { loop.RunFor(2 * time.Microsecond) }
	for i := 0; i < 64; i++ {
		slice() // leave slow start's first windows and grow the loop's slots
	}
	before := b.Stats()
	if n := testing.AllocsPerRun(100, slice); n != 0 {
		t.Errorf("data segments and ACKs in flight: %v allocs per 2 µs, want 0", n)
	}
	after := b.Stats()
	segs, acks := after.TCPSegsIn-before.TCPSegsIn, after.FramesOut-before.FramesOut
	if segs < 100 || acks < 50 {
		t.Fatalf("only %d segments in and %d ACKs out while measuring", segs, acks)
	}
	loop.RunFor(100 * time.Millisecond)
	if client.WriteBufferFree() != client.WriteBufferCap() || a.Stats().TCPRetransmits != 0 {
		t.Fatalf("stream not delivered cleanly: %d bytes unacknowledged, %d retransmissions",
			client.WriteBufferCap()-client.WriteBufferFree(), a.Stats().TCPRetransmits)
	}
	if n := framepool.Live() - live; n != 0 {
		t.Errorf("%d frames not released", n)
	}
}

// The copy ledger reaches the wire: below the TCP send buffer every
// payload byte sent — retransmissions and window probes included — is
// copied exactly once, into its frame, and a receiver that only
// acknowledges copies nothing.
func TestFrameCopyLedger(t *testing.T) {
	link := fastLink()
	link.LossProb = 0.02
	p := newPair(t, link, nil)
	client, server := establishTCP(t, p, 80, SocketOptions{}, SocketOptions{})
	data := make([]byte, 1<<20)
	got, buf := 0, make([]byte, 64<<10)
	for sent := 0; got < len(data) && p.loop.Now() < sim.Time(20*time.Second); {
		sent += client.Write(data[sent:])
		p.loop.RunFor(time.Millisecond)
		for {
			n, _ := server.Read(buf)
			if n == 0 {
				break
			}
			got += n
		}
	}
	if got != len(data) {
		t.Fatalf("delivered %d of %d bytes", got, len(data))
	}
	cs := client.Stats()
	if cs.Retransmits == 0 {
		t.Fatal("a 2% loss link produced no retransmission: the test does not cover them")
	}
	if tx := uint64(p.a.Stats().FrameCopiedTx); tx != cs.BytesSent {
		t.Errorf("sender copied %d bytes into frames for %d payload bytes sent (%.3f per byte), want exactly 1",
			tx, cs.BytesSent, float64(tx)/float64(cs.BytesSent))
	}
	if cs.BytesSent <= uint64(len(data)) {
		t.Errorf("bytes sent %d do not include the retransmissions of %d", cs.BytesSent, len(data))
	}
	if rx := p.b.Stats().FrameCopiedTx; rx != 0 || server.Stats().BytesSent != 0 {
		t.Errorf("receiver copied %d bytes into frames, want 0", rx)
	}
}

// BenchmarkFramePath is the framing cost of one full data segment with
// the state machines left out: built through sendTCP → sendIPv4 →
// sendEthernet into a pool frame, then parsed back through the three
// layers (both checksums verified) and released.
func BenchmarkFramePath(b *testing.B) {
	s := New(Config{Clock: sim.NewLoop(), RNG: sim.NewRNG(1), Name: "a"})
	s.AttachInterface(macA, ipA, 1500, 24, ipv4.Addr{}, func(f []byte) {
		_, pkt, err := ethernet.Parse(f)
		if err == nil {
			var seg []byte
			if _, seg, err = ipv4.Parse(pkt); err == nil {
				_, _, err = tcp.Parse(ipA, ipB, seg)
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		framepool.Put(f)
	})
	s.arpCache.Learn(ipB, macB)
	payload := make([]byte, s.MSS())
	h := tcp.Header{SrcPort: 49152, DstPort: 80, Ack: 1, Flags: tcp.FlagACK | tcp.FlagPSH, Window: 512}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Seq += uint32(len(payload))
		s.sendTCP(ipA, ipB, &h, payload, 0)
	}
}

// frameKind names what a frame carries, for the frames
// TestEveryStackFrameIsPooled looks for ("" for any other).
func frameKind(t *testing.T, f []byte) string {
	t.Helper()
	eh, pkt, err := ethernet.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if eh.Type == ethernet.TypeARP {
		p, err := arp.Parse(pkt)
		if err != nil {
			t.Fatal(err)
		}
		return map[arp.Op]string{arp.OpRequest: "ARP request", arp.OpReply: "ARP reply"}[p.Op]
	}
	ih, seg, err := ipv4.Parse(pkt)
	if err != nil {
		t.Fatal(err)
	}
	full := int(ih.TotalLen) == ethernet.MTU
	switch ih.Proto {
	case ipv4.ProtoTCP:
		h, payload, err := tcp.Parse(ih.Src, ih.Dst, seg)
		if err != nil {
			t.Fatal(err)
		}
		all := h.Opts.MSS != 0 && h.Opts.WScaleOK && h.Opts.SACKPermitted
		switch {
		case h.Flags&tcp.FlagRST != 0:
			return "RST"
		case h.Flags&tcp.FlagSYN != 0 && h.Flags&tcp.FlagACK != 0 && all:
			return "SYN-ACK with every option"
		case h.Flags&tcp.FlagSYN != 0 && all:
			return "SYN with every option"
		case full && len(payload) == ethernet.MTU-ipv4.HeaderLen-tcp.MinHeaderLen:
			return "full-MSS data segment"
		case len(payload) == 0 && h.Opts.NumSACK == 3:
			return "pure ACK with 3 SACK blocks"
		}
	}
	return ""
}

// Every kind of frame the stack builds — the largest of each included —
// is one pool buffer, and goes back to the pool once delivered.
func TestEveryStackFrameIsPooled(t *testing.T) {
	p := newPair(t, fastLink(), nil)
	want := []string{
		"ARP request", "ARP reply", "SYN with every option", "SYN-ACK with every option",
		"full-MSS data segment", "pure ACK with 3 SACK blocks", "RST",
	}
	seen := map[string]int{}
	dataSegs := 0
	tap := func(s *Stack, send func([]byte)) {
		s.iface.tx = func(f []byte) {
			kind := frameKind(t, f)
			if cap(f) != framepool.Cap {
				t.Errorf("%s frame %q of %d bytes has capacity %d, want the pool's %d", s.Name(), kind, len(f), cap(f), framepool.Cap)
			}
			seen[kind]++
			if kind == "full-MSS data segment" {
				// Lose the 2nd, 4th and 6th so the receiver holds three
				// out-of-order runs and SACKs all of them.
				if dataSegs++; dataSegs == 2 || dataSegs == 4 || dataSegs == 6 {
					framepool.Put(f)
					return
				}
			}
			send(f)
		}
	}
	tap(p.a, p.nicA.Send)
	tap(p.b, p.nicB.Send)
	live := framepool.Live()

	client, server := establishTCP(t, p, 80, SocketOptions{}, SocketOptions{})
	payload := make([]byte, 16<<10)
	client.Write(payload)
	p.loop.RunFor(time.Second)
	for buf := make([]byte, len(payload)); len(payload) > 0; {
		n, _ := server.Read(buf)
		if n == 0 {
			t.Fatalf("%d bytes never arrived", len(payload))
		}
		payload = payload[n:]
	}
	if _, err := p.a.Dial(tcp.AddrPort{Addr: ipB, Port: 81}, SocketOptions{}); err != nil {
		t.Fatal(err) // nobody listens on 81: b answers RST
	}
	p.loop.RunFor(time.Second)

	for _, kind := range want {
		if seen[kind] == 0 {
			t.Errorf("no %s was sent", kind)
		}
	}
	if n := framepool.Live() - live; n != 0 {
		t.Errorf("%d frames not released after delivery", n)
	}
}
