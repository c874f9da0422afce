package tcp

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"netkernel/internal/sim"
	"netkernel/internal/tcpcc"
)

// environment is every incarnation field a snapshot does not carry, with
// the reason. Everything else is in the tcb, which a snapshot carries
// whole, so a field added to incarnation must be placed in one or the
// other before this test passes.
var environment = map[string]string{
	"cfg":                "the restoring stack's; Restore takes Local and Remote from the snapshot and MSS from ctrl",
	"cc":                 "the restoring stack's instance; ConnSnapshot.CCState carries its internals",
	"owner":              "the restoring stack registers itself with SetOwner",
	"sink":               "a callback the owner reinstalls: servicelib.Migrate calls SetPushSink",
	"oooBytes":           "derived: Restore recounts it from the reorder queue it refills",
	"wantWrite":          "application interest the owner re-arms: servicelib.Migrate calls pumpSend",
	"closed":             "a snapshot is only ever taken of a live connection",
	"onEstablishedFired": "derived: Restore sets it from the state",
}

func TestIncarnationFieldsAreStateOrEnvironment(t *testing.T) {
	typ := reflect.TypeOf(incarnation{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		seen[f.Name] = true
		if f.Anonymous && f.Type == reflect.TypeOf(tcb{}) {
			continue
		}
		if environment[f.Name] == "" {
			t.Errorf("incarnation.%s is neither in the tcb, which snapshots carry, nor on the environment list", f.Name)
		}
	}
	for name := range environment {
		if !seen[name] {
			t.Errorf("the environment list names %s, which incarnation does not have", name)
		}
	}
	if f, ok := reflect.TypeOf(ConnSnapshot{}).FieldByName("tcb"); !ok || !f.Anonymous {
		t.Error("ConnSnapshot does not embed the tcb")
	}
}

// stageStates drives a pair running congestion control cc through the
// states a connection passes, handing visit each connection as it
// reaches one: SYN-SENT; ESTABLISHED in recovery, the sender with SACKed
// segments on its scoreboard and the receiver with a reorder queue;
// FIN-WAIT-2 and CLOSE-WAIT after a half-close; TIME-WAIT.
func stageStates(t testing.TB, cc string, visit func(what string, n *testNet, c *Conn)) {
	n := newTestNet(t)
	hole := false
	n.drop = func(dir string, h *Header, payload []byte) bool {
		return hole && dir == "a→b" && len(payload) > 0 && h.Seq == n.a.sndUna
	}
	n.dialPair(cc, cc, nil)
	visit("syn-sent", n, n.a)
	n.establish()

	payload := make([]byte, 256<<10)
	hole = true
	n.a.Write(payload)
	runUntil(t, n, "recovery", func() bool { return n.a.inRecovery && n.a.inflight.sacked > 0 && len(n.b.ooo) > 0 })
	visit("established, sender in recovery", n, n.a)
	visit("established, receiver reordering", n, n.b)

	hole = false
	buf := make([]byte, 64<<10)
	read := 0
	runUntil(t, n, "transfer", func() bool {
		for {
			m, _ := n.b.Read(buf)
			if m == 0 {
				return read == len(payload)
			}
			read += m
		}
	})
	n.a.Close()
	runUntil(t, n, "half-close", func() bool { return n.a.State() == StateFinWait2 && n.b.State() == StateCloseWait })
	visit("fin-wait-2", n, n.a)
	visit("close-wait", n, n.b)
	n.b.Close()
	runUntil(t, n, "time-wait", func() bool { return n.a.State() == StateTimeWait && n.b.State() == StateClosed })
	visit("time-wait", n, n.a)
}

// runUntil runs n's loop a millisecond at a time until done holds, for
// at most ten virtual seconds.
func runUntil(t testing.TB, n *testNet, what string, done func() bool) {
	t.Helper()
	for end := n.loop.Now().Add(10 * time.Second); !done(); n.loop.RunFor(time.Millisecond) {
		if n.loop.Now() > end {
			t.Fatalf("%s never reached: a %v, b %v", what, n.a.State(), n.b.State())
		}
	}
}

func quietConfig(t testing.TB, clock sim.Clock, cc string) Config {
	return Config{Clock: clock, CC: mustCC(t, cc), Output: func(*Header, []byte, bool) {}}
}

// Restoring a snapshot onto a fresh connection on the same clock and
// snapshotting that again gives back the same snapshot, for every
// congestion control, in every state a connection passes through.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, name := range tcpcc.Names() {
		t.Run(name, func(t *testing.T) {
			stageStates(t, name, func(what string, n *testNet, c *Conn) {
				snap, r := c.Snapshot(), new(Conn)
				if err := r.Restore(quietConfig(t, n.loop, name), snap); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				again := r.Snapshot()
				r.Detach()
				if !reflect.DeepEqual(snap.tcb, again.tcb) {
					t.Errorf("%s: state block differs after the round trip\nsnapshot: %+v\nrestored: %+v", what, snap.tcb, again.tcb)
				} else if !reflect.DeepEqual(snap, again) {
					t.Errorf("%s: buffers, scoreboard or congestion-control state differ after the round trip", what)
				}
			})
		})
	}
}

// Restore refuses a snapshot no live connection could have produced, one
// rule at a time, and leaves the connection it was asked to rebuild
// untouched.
func TestRestoreRefusesImpossibleSnapshot(t *testing.T) {
	sender, loop := sackFuzzSender(t) // FIN-WAIT-1, 30 segments and the FIN in flight
	base := sender.Snapshot()
	last := len(base.Inflight) - 1
	for _, tc := range []struct {
		name    string
		corrupt func(s *ConnSnapshot)
	}{
		{"state out of range", func(s *ConnSnapshot) { s.state = 42 }},
		{"sndNxt beyond sndMax", func(s *ConnSnapshot) { s.sndNxt = s.sndMax + 1 }},
		{"sndUna beyond sndNxt", func(s *ConnSnapshot) { s.sndUna = s.sndNxt + 1 }},
		{"entry beyond sndMax", func(s *ConnSnapshot) { s.Inflight[last].seq = s.sndMax }},
		{"entry already acknowledged", func(s *ConnSnapshot) { s.Inflight[0].seq = s.sndUna - 5000 }},
		{"entry of negative length", func(s *ConnSnapshot) { s.Inflight[3].length = -1 }},
		{"peer window scale above 14", func(s *ConnSnapshot) { s.peerWScale = 15 }},
		{"own window scale above 14", func(s *ConnSnapshot) { s.ourWScale = 15 }},
		{"zero RTO", func(s *ConnSnapshot) { s.rto = 0 }},
		{"RTO above the ceiling", func(s *ConnSnapshot) { s.rto = maxRTO + time.Millisecond }},
		{"FIN sent in ESTABLISHED", func(s *ConnSnapshot) { s.state = StateEstablished }},
		{"FIN-WAIT-1 with no FIN sent", func(s *ConnSnapshot) { s.finSent = false }},
		{"FIN sent but never queued", func(s *ConnSnapshot) { s.finQueued = false }},
		{"peer's FIN in FIN-WAIT-1", func(s *ConnSnapshot) { s.finRcvd = true }},
		{"CLOSING without the peer's FIN", func(s *ConnSnapshot) { s.state = StateClosing }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := *base
			s.Inflight = slices.Clone(base.Inflight)
			tc.corrupt(&s)
			var c Conn
			if err := c.Restore(quietConfig(t, loop, "reno"), &s); err == nil {
				t.Fatal("restored")
			}
			if c.cfg.Clock != nil {
				t.Fatal("a refused Restore rebuilt the connection")
			}
		})
	}
	if err := new(Conn).Restore(quietConfig(t, loop, "reno"), base); err != nil {
		t.Fatalf("the uncorrupted snapshot is refused too: %v", err)
	}
}

// scalarFields appends a settable value for every boolean and numeric
// field of the struct v, descending into nested structs.
func scalarFields(v reflect.Value, out []reflect.Value) []reflect.Value {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem() // unexported fields too
		switch f.Kind() {
		case reflect.Struct:
			out = scalarFields(f, out)
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float64:
			out = append(out, f)
		}
	}
	return out
}

// mutate sets f to v, or moves it by v when delta is set. Floats stay
// finite, so a snapshot can still be compared with itself.
func mutate(f reflect.Value, v int64, delta bool) {
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(v&1 != 0)
	case reflect.Float64:
		if !delta {
			f.SetFloat(0)
		}
		f.SetFloat(f.Float() + float64(v))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if delta {
			v += int64(f.Uint())
		}
		f.SetUint(uint64(v))
	default:
		if delta {
			v += f.Int()
		}
		f.SetInt(v)
	}
}

// FuzzConnSnapshotRestore corrupts the state block and the scoreboard of
// snapshots taken in every state TestSnapshotRestoreRoundTrip visits.
// Each 10-byte op picks a field and either sets it (odd selector) or
// moves it by a small step (even selector). Restore must never panic,
// and when it accepts a snapshot the connection it builds must pass the
// check and snapshot to what restores to itself.
func FuzzConnSnapshotRestore(f *testing.F) {
	type seed struct {
		cc   string
		at   sim.Time
		snap *ConnSnapshot
	}
	var seeds []seed
	for _, name := range tcpcc.Names() {
		stageStates(f, name, func(_ string, n *testNet, c *Conn) {
			seeds = append(seeds, seed{name, n.loop.Now(), c.Snapshot()})
		})
	}
	op := func(sel uint16, v int64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint16(nil, sel), uint64(v))
	}
	for i := range seeds {
		f.Add(uint8(i), []byte(nil))
	}
	f.Add(uint8(1), op(0, 1))                       // the state, one step on
	f.Add(uint8(1), append(op(2, -3), op(5, 0)...)) // iss moved back, sndUna zeroed
	f.Add(uint8(13), op(0x7ff, 1<<40))              // far into the scoreboard

	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		sd := seeds[int(which)%len(seeds)]
		s := *sd.snap
		s.Inflight = slices.Clone(s.Inflight)
		fields := scalarFields(reflect.ValueOf(&s.tcb).Elem(), nil)
		for i := range s.Inflight {
			fields = scalarFields(reflect.ValueOf(&s.Inflight[i]).Elem(), fields)
		}
		for ; len(ops) >= 10; ops = ops[10:] {
			sel, v := binary.LittleEndian.Uint16(ops), int64(binary.LittleEndian.Uint64(ops[2:]))
			delta := sel&1 == 0
			if delta {
				v = int64(int16(v))
			}
			mutate(fields[int(sel>>1)%len(fields)], v, delta)
		}

		loop := sim.NewLoop()
		loop.RunUntil(sd.at)
		var c, r Conn
		if c.Restore(quietConfig(t, loop, sd.cc), &s) != nil {
			return
		}
		defer c.Detach()
		checkLive(t, &c)
		once := c.Snapshot()
		if err := r.Restore(quietConfig(t, loop, sd.cc), once); err != nil {
			t.Fatalf("the snapshot of a restored connection is refused: %v", err)
		}
		defer r.Detach()
		if twice := r.Snapshot(); !reflect.DeepEqual(once, twice) {
			t.Fatalf("restoring a restored connection's snapshot changes it\nonce:  %+v\ntwice: %+v", once.tcb, twice.tcb)
		}
	})
}
