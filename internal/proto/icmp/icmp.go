// Package icmp implements the ICMPv4 messages the stack uses: echo
// (ping, which powers the pingmesh-style failure detector in
// internal/mgmt). Inbound errors (destination unreachable, time
// exceeded) parse like any message; the stack sends none.
package icmp

import (
	"encoding/binary"
	"fmt"

	"netkernel/internal/proto/inet"
)

// HeaderLen is the fixed ICMP header size.
const HeaderLen = 8

// Type is the ICMP message type.
type Type uint8

// Message types.
const (
	TypeEchoReply       Type = 0
	TypeDestUnreachable Type = 3
	TypeEchoRequest     Type = 8
	TypeTimeExceeded    Type = 11
)

func (t Type) String() string {
	switch t {
	case TypeEchoReply:
		return "echo-reply"
	case TypeDestUnreachable:
		return "dest-unreachable"
	case TypeEchoRequest:
		return "echo-request"
	case TypeTimeExceeded:
		return "time-exceeded"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Message is a decoded ICMP message. For echo messages ID and Seq are
// meaningful; for errors Body carries the embedded offending datagram.
type Message struct {
	Type Type
	Code uint8
	ID   uint16 // echo only
	Seq  uint16 // echo only
	Body []byte
}

// Len returns the marshalled size of the message.
func (m Message) Len() int { return HeaderLen + len(m.Body) }

// Marshal serializes the message into a fresh buffer.
func (m Message) Marshal() []byte {
	b := make([]byte, m.Len())
	m.MarshalInto(b)
	return b
}

// MarshalInto serializes the message into b, which must be exactly
// Len() bytes, computing the checksum. Body may alias a received packet:
// it is copied out before MarshalInto returns.
func (m Message) MarshalInto(b []byte) {
	if len(b) != m.Len() {
		panic(fmt.Sprintf("icmp: buffer %d for message %d", len(b), m.Len()))
	}
	b[0] = byte(m.Type)
	b[1] = m.Code
	b[2], b[3] = 0, 0 // checksum placeholder
	binary.BigEndian.PutUint16(b[4:], m.ID)
	binary.BigEndian.PutUint16(b[6:], m.Seq)
	copy(b[HeaderLen:], m.Body)
	binary.BigEndian.PutUint16(b[2:], inet.Checksum(b, 0))
}

// Parse decodes and validates a message. Body aliases b.
func Parse(b []byte) (Message, error) {
	if len(b) < HeaderLen {
		return Message{}, fmt.Errorf("icmp: message of %d bytes shorter than header", len(b))
	}
	if !inet.Verify(b, 0) {
		return Message{}, fmt.Errorf("icmp: checksum mismatch")
	}
	return Message{
		Type: Type(b[0]),
		Code: b[1],
		ID:   binary.BigEndian.Uint16(b[4:]),
		Seq:  binary.BigEndian.Uint16(b[6:]),
		Body: b[HeaderLen:],
	}, nil
}

// The constructors below return the message unmarshalled, its Body
// aliasing the argument, so the stack can marshal it straight into a
// frame buffer.

// EchoRequest builds an echo request carrying payload.
func EchoRequest(id, seq uint16, payload []byte) Message {
	return Message{Type: TypeEchoRequest, ID: id, Seq: seq, Body: payload}
}

// EchoReply builds the reply to a request message.
func EchoReply(req Message) Message {
	return Message{Type: TypeEchoReply, ID: req.ID, Seq: req.Seq, Body: req.Body}
}
