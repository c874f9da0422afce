package icmp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEchoRoundTrip(t *testing.T) {
	payload := []byte("pingmesh probe 42")
	req := EchoRequest(7, 3, payload).Marshal()
	m, err := Parse(req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeEchoRequest || m.ID != 7 || m.Seq != 3 || !bytes.Equal(m.Body, payload) {
		t.Fatalf("parsed %+v", m)
	}
	rep := EchoReply(m).Marshal()
	rm, err := Parse(rep)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Type != TypeEchoReply || rm.ID != 7 || rm.Seq != 3 || !bytes.Equal(rm.Body, payload) {
		t.Fatalf("reply %+v", rm)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	req := EchoRequest(1, 1, []byte("x")).Marshal()
	req[len(req)-1] ^= 0xff
	if _, err := Parse(req); err == nil {
		t.Fatal("corrupt message accepted")
	}
	if _, err := Parse(make([]byte, 4)); err == nil {
		t.Fatal("short message accepted")
	}
}

func TestQuickEchoRoundTrip(t *testing.T) {
	err := quick.Check(func(id, seq uint16, body []byte) bool {
		m, err := Parse(EchoRequest(id, seq, body).Marshal())
		return err == nil && m.ID == id && m.Seq == seq && bytes.Equal(m.Body, body)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// An inbound error parses like any message, its body the embedded
// start of the offending datagram.
func TestErrorsEmbedOriginal(t *testing.T) {
	original := make([]byte, 28)
	for i := range original {
		original[i] = byte(i)
	}
	du := Message{Type: TypeDestUnreachable, Code: 3, Body: original}.Marshal()
	m, err := Parse(du)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeDestUnreachable || m.Code != 3 || !bytes.Equal(m.Body, original) {
		t.Fatalf("parsed %+v", m)
	}
	te, err := Parse(Message{Type: TypeTimeExceeded, Body: original[:10]}.Marshal())
	if err != nil || te.Type != TypeTimeExceeded || len(te.Body) != 10 {
		t.Fatalf("time-exceeded %+v, %v", te, err)
	}
}

func TestTypeString(t *testing.T) {
	if TypeEchoRequest.String() != "echo-request" || Type(99).String() != "type(99)" {
		t.Fatal("Type String broken")
	}
}
