package nqe

import (
	"testing"
	"testing/quick"
)

func sample() Element {
	return Element{
		Op: OpSend, Flags: FlagCompletion | FlagPush, Source: FromVM,
		VMID: 3, NSMID: 9, FD: 42, CID: 1007, Status: StatusTimeout,
		Seq: 0xdeadbeefcafe, DataOff: 8192 * 7, DataLen: 1448,
		Arg0: 0x12345678, Arg1: 0x9abcdef0,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := sample()
	var buf [Size]byte
	in.Encode(buf[:])
	var out Element
	out.Decode(buf[:])
	if out != in {
		t.Fatalf("round trip:\n in=%+v\nout=%+v", in, out)
	}
}

// Property: every element round-trips through the wire format.
func TestQuickRoundTrip(t *testing.T) {
	err := quick.Check(func(op, flags, src uint8, vm, nsm, cid uint32, fd int32, status int32, seq, off, a0, a1 uint64, dlen uint32) bool {
		in := Element{
			Op: Op(op), Flags: Flags(flags), Source: Source(src),
			VMID: vm, NSMID: nsm, FD: fd, CID: cid, Status: Status(status),
			Seq: seq, DataOff: off, DataLen: dlen, Arg0: a0, Arg1: a1,
		}
		var buf [Size]byte
		in.Encode(buf[:])
		var out Element
		out.Decode(buf[:])
		return out == in
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	e := sample()
	var a, b [Size]byte
	// Dirty buffer: encode must overwrite every meaningful byte.
	for i := range b {
		b[i] = 0xff
	}
	e.Encode(a[:])
	e.Encode(b[:])
	if a != b {
		t.Fatal("encoding depends on prior buffer contents")
	}
}

func TestValidate(t *testing.T) {
	e := sample()
	if err := e.Validate(); err != nil {
		t.Fatalf("valid element rejected: %v", err)
	}
	bad := e
	bad.Op = OpInvalid
	if bad.Validate() == nil {
		t.Fatal("invalid op accepted")
	}
	bad = e
	bad.Op = Op(200)
	if bad.Validate() == nil {
		t.Fatal("out-of-range op accepted")
	}
	bad = e
	bad.Source = 0
	if bad.Validate() == nil {
		t.Fatal("invalid source accepted")
	}
}

func TestOpClassification(t *testing.T) {
	if !OpNewConn.IsEvent() || !OpNewData.IsEvent() || !OpEstablished.IsEvent() {
		t.Fatal("receive-queue events misclassified")
	}
	if OpSend.IsEvent() || OpSocket.IsEvent() {
		t.Fatal("jobs classified as events")
	}
	// §3.2: connection events and data events are separated to avoid
	// head-of-line blocking.
	for _, op := range []Op{OpSocket, OpListen, OpConnect, OpNewConn, OpEstablished} {
		if !op.IsConnEvent() {
			t.Errorf("%v should be a connection event", op)
		}
	}
	// A close ends a stream and must stay behind the stream's data.
	for _, op := range []Op{OpSend, OpRecv, OpNewData, OpClose, OpConnClosed} {
		if op.IsConnEvent() {
			t.Errorf("%v should be a data event", op)
		}
	}
}

func TestOpStrings(t *testing.T) {
	if OpSend.String() != "send" || OpNewData.String() != "new-data" {
		t.Fatal("op names broken")
	}
	if Op(250).String() != "op(250)" {
		t.Fatal("unknown op String broken")
	}
	// The span names are the strings the tracer's callers used to build
	// per element, for every op a ring can carry.
	for o := 0; o < 256; o++ {
		if op := Op(o); op.TxSpan() != "tx:"+op.String() || op.RxSpan() != "rx:"+op.String() {
			t.Fatalf("op %d: span names %q %q", o, op.TxSpan(), op.RxSpan())
		}
	}
}

func TestStatusErr(t *testing.T) {
	if StatusOK.Err() != nil {
		t.Fatal("StatusOK should map to nil error")
	}
	err := StatusConnRefused.Err()
	if err == nil || err.Error() != "nqe: connection refused" {
		t.Fatalf("StatusConnRefused.Err() = %v", err)
	}
	var se *StatusError
	if !asStatusError(err, &se) || se.Status != StatusConnRefused {
		t.Fatal("error does not unwrap to StatusError")
	}
}

func asStatusError(err error, target **StatusError) bool {
	se, ok := err.(*StatusError)
	if ok {
		*target = se
	}
	return ok
}

func TestPackAddrRoundTrip(t *testing.T) {
	err := quick.Check(func(a, b, c, d byte, port uint16) bool {
		ip := [4]byte{a, b, c, d}
		gotIP, gotPort := UnpackAddr(PackAddr(ip, port))
		return gotIP == ip && gotPort == port
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSizeIsCacheLine(t *testing.T) {
	if Size != 64 {
		t.Fatalf("nqe size = %d, want one cache line (64)", Size)
	}
}

// Slot accessors must agree exactly with the Encode/Decode wire format,
// both reading and patching in place.
func TestSlotAccessorsMatchCodec(t *testing.T) {
	e := Element{
		Op: OpNewConn, Flags: FlagCompletion | FlagSync, Source: FromNSM,
		VMID: 7, NSMID: 9, FD: -3, CID: 0xdeadbeef, Status: StatusTimeout,
		Seq: 1 << 40, DataOff: 4096, DataLen: 1448, Arg0: 42, Arg1: 99,
	}
	buf := make([]byte, Size)
	e.Encode(buf)
	s := Slot(buf)
	if s.Op() != e.Op || s.Flags() != e.Flags || s.Source() != e.Source ||
		s.VMID() != e.VMID || s.FD() != e.FD || s.CID() != e.CID ||
		s.Seq() != e.Seq || s.Arg1() != e.Arg1 {
		t.Fatalf("Slot read mismatch: %v vs %+v", buf, e)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Slot.Validate: %v", err)
	}

	s.SetVMID(100)
	s.SetNSMID(200)
	s.SetFD(-300)
	s.SetCID(400)
	s.SetArg1(500)
	var got Element
	got.Decode(buf)
	want := e
	want.VMID, want.NSMID, want.FD, want.CID, want.Arg1 = 100, 200, -300, 400, 500
	if got != want {
		t.Fatalf("patched decode = %+v, want %+v", got, want)
	}
}

func TestSlotValidateRejects(t *testing.T) {
	buf := make([]byte, Size)
	if Slot(buf).Validate() == nil {
		t.Fatal("zero slot (invalid op) passed validation")
	}
	e := Element{Op: OpSend, Source: FromVM}
	e.Encode(buf)
	buf[2] = 99 // corrupt Source
	if Slot(buf).Validate() == nil {
		t.Fatal("bad source passed validation")
	}
}

// IsEvent reports whether the op belongs on a receive queue (NSM→VM
// asynchronous events) rather than a job/completion pair.
func (o Op) IsEvent() bool {
	switch o {
	case OpNewData, OpNewConn, OpConnClosed, OpEstablished:
		return true
	}
	return false
}
