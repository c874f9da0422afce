// Package nqe defines the NetKernel Queue Element, the unit of
// communication between GuestLib, CoreEngine, and ServiceLib (§3.2).
//
// An nqe "contains operation ID, VM ID, and fd for the VM, or operation
// ID, NSM ID, and connection ID (cID) for NSM. It also has a data
// descriptor if necessary, which is a pointer to the huge pages for
// data. Each nqe is copied between VM queues and NSM queues by
// CoreEngine. It is small in size and copying incurs negligible
// overhead."
//
// The element is a fixed 64-byte little-endian record — exactly one
// cache line, and exactly one ring slot — so the CoreEngine copy the
// paper measures at ~12 ns is a single-line copy here too.
package nqe

import (
	"encoding/binary"
	"fmt"
)

// Size is the wire size of an element: one cache line.
const Size = 64

// Op identifies what an element asks for (job queues) or reports
// (completion and receive queues).
type Op uint8

// Operations intercepted from the socket API by GuestLib (§4.1 lists
// socket, connect, recv, send, setsockopt, …) plus the events ServiceLib
// pushes back (§3.2: new data, new connections, completions).
const (
	OpInvalid Op = iota

	// Requests, VM → NSM.
	OpSocket     // create a socket; completion carries the fd
	OpListen     // listen with backlog in Arg0
	OpConnect    // connect to remote address in Arg0
	OpSend       // data descriptor points at payload
	OpRecv       // credit: guest is ready for more data
	OpClose      // close the connection
	OpSetSockOpt // option in Arg0, value in Arg1

	// Events, NSM → VM (receive queue).
	OpNewData     // data arrived; descriptor points at payload
	OpNewConn     // a SYN completed on a listener; Arg0 is the peer address
	OpConnClosed  // peer closed or connection reset; a listener's Arg1 counts the OpNewConns announced for it
	OpEstablished // a pending connect finished (success or Status error)
)

var opNames = [...]string{
	OpInvalid: "invalid", OpSocket: "socket", OpListen: "listen",
	OpConnect: "connect", OpSend: "send", OpRecv: "recv",
	OpClose: "close", OpSetSockOpt: "setsockopt",
	OpNewData: "new-data", OpNewConn: "new-conn", OpConnClosed: "conn-closed",
	OpEstablished: "established",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// txSpans and rxSpans are the names of the trace spans each op opens on
// the send and the receive path ("tx:send", "rx:new-data"), built once:
// the tracer is offered every element and samples one in N.
var txSpans, rxSpans = spanNames("tx:"), spanNames("rx:")

func spanNames(prefix string) (names [256]string) {
	for o := range names {
		names[o] = prefix + Op(o).String()
	}
	return names
}

// TxSpan names the span a VM-sourced element of this op opens.
func (o Op) TxSpan() string { return txSpans[o] }

// RxSpan names the span an NSM-sourced event of this op opens.
func (o Op) RxSpan() string { return rxSpans[o] }

// Valid reports whether the op is a defined operation.
func (o Op) Valid() bool { return o > OpInvalid && int(o) < len(opNames) }

// IsConnEvent reports whether the op is a connection-lifecycle event.
// §3.2 suggests implementing the queues "as priority queues to handle
// connection events and data events separately to avoid the head of line
// blocking"; connection events go to the high-priority ring. OpClose
// and OpConnClosed are deliberately NOT connection events: each ends a
// stream whose OpSend or OpNewData elements precede it in the data ring,
// and overtaking them would close the stream before its last bytes.
func (o Op) IsConnEvent() bool {
	switch o {
	case OpSocket, OpListen, OpConnect, OpNewConn, OpEstablished:
		return true
	}
	return false
}

// Source says which component produced the element.
type Source uint8

const (
	FromVM Source = iota + 1
	FromNSM
	FromCore
)

// Flags qualify an element.
type Flags uint8

const (
	// FlagCompletion marks a completion-queue response to a job.
	FlagCompletion Flags = 1 << iota
	// FlagSync marks a job whose caller blocks until the completion
	// arrives (§3.2 synchronous operations).
	FlagSync
	// FlagMoreData marks a send/new-data element that continues in the
	// next element (payload larger than one huge-page chunk).
	FlagMoreData
	// FlagPush asks the stack to push the data immediately (TCP PSH).
	FlagPush
)

// Status is the errno-like result carried by completions and events.
type Status int32

const (
	StatusOK Status = iota
	StatusConnRefused
	StatusConnReset
	StatusTimeout
	StatusAddrInUse
	StatusClosed
	StatusInvalid
	StatusUnreachable
	StatusNotSupported
)

var statusNames = [...]string{
	StatusOK: "ok", StatusConnRefused: "connection refused",
	StatusConnReset: "connection reset", StatusTimeout: "timeout",
	StatusAddrInUse: "address in use", StatusClosed: "closed",
	StatusInvalid: "invalid", StatusUnreachable: "unreachable",
	StatusNotSupported: "not supported",
}

func (s Status) String() string {
	if int(s) >= 0 && int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", int32(s))
}

// Err converts a non-OK status to an error (nil for StatusOK).
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return &StatusError{s}
}

// StatusError wraps a Status as an error.
type StatusError struct{ Status Status }

func (e *StatusError) Error() string { return "nqe: " + e.Status.String() }

// An Element is one decoded nqe.
type Element struct {
	Op     Op
	Flags  Flags
	Source Source
	VMID   uint32 // tenant VM identity
	NSMID  uint32 // network stack module identity
	FD     int32  // guest-visible socket descriptor
	CID    uint32 // NSM-side connection id
	Status Status
	Seq    uint64 // request/response correlation id

	// Data descriptor: a pointer into the shared huge pages (§3.2).
	DataOff uint64
	DataLen uint32

	// Trace is the telemetry span id riding with the element (0 =
	// untraced). Each layer that moves a traced element stamps a hop
	// against this id, so an end-to-end latency breakdown needs no
	// side-band correlation — the id lives in the former pad bytes at
	// offset 44 and costs nothing on the wire.
	Trace uint32

	// Operation-specific arguments (addresses, options, backlogs…).
	Arg0 uint64
	Arg1 uint64
}

// Wire layout, little endian:
//
//	off  0: Op(1) Flags(1) Source(1) pad(1)
//	off  4: VMID(4) NSMID(4) FD(4) CID(4) Status(4)
//	off 24: Seq(8) DataOff(8) DataLen(4) Trace(4)
//	off 48: Arg0(8) Arg1(8)
const (
	offOp      = 0
	offFlags   = 1
	offSource  = 2
	offVMID    = 4
	offNSMID   = 8
	offFD      = 12
	offCID     = 16
	offStatus  = 20
	offSeq     = 24
	offDataOff = 32
	offDataLen = 40
	offTrace   = 44
	offArg0    = 48
	offArg1    = 56
)

// Encode writes the element into dst, which must be at least Size bytes.
func (e *Element) Encode(dst []byte) {
	_ = dst[Size-1] // bounds hint
	dst[offOp] = byte(e.Op)
	dst[offFlags] = byte(e.Flags)
	dst[offSource] = byte(e.Source)
	dst[3] = 0
	binary.LittleEndian.PutUint32(dst[offVMID:], e.VMID)
	binary.LittleEndian.PutUint32(dst[offNSMID:], e.NSMID)
	binary.LittleEndian.PutUint32(dst[offFD:], uint32(e.FD))
	binary.LittleEndian.PutUint32(dst[offCID:], e.CID)
	binary.LittleEndian.PutUint32(dst[offStatus:], uint32(e.Status))
	binary.LittleEndian.PutUint64(dst[offSeq:], e.Seq)
	binary.LittleEndian.PutUint64(dst[offDataOff:], e.DataOff)
	binary.LittleEndian.PutUint32(dst[offDataLen:], e.DataLen)
	binary.LittleEndian.PutUint32(dst[offTrace:], e.Trace)
	binary.LittleEndian.PutUint64(dst[offArg0:], e.Arg0)
	binary.LittleEndian.PutUint64(dst[offArg1:], e.Arg1)
}

// Decode reads the element from src, which must be at least Size bytes.
func (e *Element) Decode(src []byte) {
	_ = src[Size-1]
	e.Op = Op(src[offOp])
	e.Flags = Flags(src[offFlags])
	e.Source = Source(src[offSource])
	e.VMID = binary.LittleEndian.Uint32(src[offVMID:])
	e.NSMID = binary.LittleEndian.Uint32(src[offNSMID:])
	e.FD = int32(binary.LittleEndian.Uint32(src[offFD:]))
	e.CID = binary.LittleEndian.Uint32(src[offCID:])
	e.Status = Status(binary.LittleEndian.Uint32(src[offStatus:]))
	e.Seq = binary.LittleEndian.Uint64(src[offSeq:])
	e.DataOff = binary.LittleEndian.Uint64(src[offDataOff:])
	e.DataLen = binary.LittleEndian.Uint32(src[offDataLen:])
	e.Trace = binary.LittleEndian.Uint32(src[offTrace:])
	e.Arg0 = binary.LittleEndian.Uint64(src[offArg0:])
	e.Arg1 = binary.LittleEndian.Uint64(src[offArg1:])
}

// Validate checks structural invariants a CoreEngine enforces before
// trusting a guest-produced element.
func (e *Element) Validate() error {
	if !e.Op.Valid() {
		return fmt.Errorf("nqe: invalid op %d", uint8(e.Op))
	}
	if e.Source != FromVM && e.Source != FromNSM && e.Source != FromCore {
		return fmt.Errorf("nqe: invalid source %d", uint8(e.Source))
	}
	return nil
}

func (e *Element) String() string {
	return fmt.Sprintf("nqe{%s vm=%d nsm=%d fd=%d cid=%d seq=%d len=%d status=%s}",
		e.Op, e.VMID, e.NSMID, e.FD, e.CID, e.Seq, e.DataLen, e.Status)
}

// Slot is a view over one encoded element sitting in place in a ring
// slot. The CoreEngine's translation step must consult the fd↔cID table
// per element, but it only ever touches a handful of header fields; Slot
// lets it read and patch exactly those fields without the full
// decode/encode round trip of Element, which is what keeps the batched
// queue-to-queue path at a single 64-byte copy per element (§4.2).
type Slot []byte

// Op returns the element's operation.
func (s Slot) Op() Op { return Op(s[offOp]) }

// Flags returns the element's flags.
func (s Slot) Flags() Flags { return Flags(s[offFlags]) }

// Source returns the producing component.
func (s Slot) Source() Source { return Source(s[offSource]) }

// VMID returns the tenant VM identity.
func (s Slot) VMID() uint32 { return binary.LittleEndian.Uint32(s[offVMID:]) }

// SetVMID patches the tenant VM identity in place.
func (s Slot) SetVMID(v uint32) { binary.LittleEndian.PutUint32(s[offVMID:], v) }

// SetNSMID patches the stack-module identity in place.
func (s Slot) SetNSMID(v uint32) { binary.LittleEndian.PutUint32(s[offNSMID:], v) }

// FD returns the guest-visible descriptor.
func (s Slot) FD() int32 { return int32(binary.LittleEndian.Uint32(s[offFD:])) }

// SetFD patches the guest-visible descriptor in place.
func (s Slot) SetFD(v int32) { binary.LittleEndian.PutUint32(s[offFD:], uint32(v)) }

// CID returns the NSM-side connection id.
func (s Slot) CID() uint32 { return binary.LittleEndian.Uint32(s[offCID:]) }

// SetCID patches the NSM-side connection id in place.
func (s Slot) SetCID(v uint32) { binary.LittleEndian.PutUint32(s[offCID:], v) }

// Seq returns the request/response correlation id.
func (s Slot) Seq() uint64 { return binary.LittleEndian.Uint64(s[offSeq:]) }

// DataOff returns the huge-page chunk offset of the slot's data
// descriptor without a full decode.
func (s Slot) DataOff() uint64 { return binary.LittleEndian.Uint64(s[offDataOff:]) }

// DataLen returns the data descriptor's length without a full decode.
func (s Slot) DataLen() uint32 { return binary.LittleEndian.Uint32(s[offDataLen:]) }

// Trace returns the telemetry span id (0 = untraced).
func (s Slot) Trace() uint32 { return binary.LittleEndian.Uint32(s[offTrace:]) }

// Arg1 returns the second operation argument.
func (s Slot) Arg1() uint64 { return binary.LittleEndian.Uint64(s[offArg1:]) }

// SetArg1 patches the second operation argument in place.
func (s Slot) SetArg1(v uint64) { binary.LittleEndian.PutUint64(s[offArg1:], v) }

// Validate performs the same structural checks as Element.Validate
// without decoding the rest of the record.
func (s Slot) Validate() error {
	if op := s.Op(); !op.Valid() {
		return fmt.Errorf("nqe: invalid op %d", uint8(op))
	}
	if src := s.Source(); src != FromVM && src != FromNSM && src != FromCore {
		return fmt.Errorf("nqe: invalid source %d", uint8(src))
	}
	return nil
}

// Socket options carried in OpSetSockOpt's Arg0 (value in Arg1).
const (
	// SockOptNagle toggles RFC 896 small-segment coalescing.
	SockOptNagle = 1
	// SockOptPriority marks the connection latency-sensitive; the NSM
	// may map it to its high-priority event ring.
	SockOptPriority = 2
)

// Readiness masks a guest Poller reports per socket (ORed together),
// derived from the events the socket receives (DESIGN.md §11).
const (
	ReadyReadable   uint32 = 1 << iota // data or EOF available to Recv
	ReadyWritable                      // send capacity returned
	ReadyAcceptable                    // a listener has pending accepts
	ReadyClosed                        // the connection terminated
)

// PackAddr packs an IPv4 address and port into an nqe argument.
func PackAddr(ip [4]byte, port uint16) uint64 {
	return uint64(binary.BigEndian.Uint32(ip[:]))<<16 | uint64(port)
}

// UnpackAddr reverses PackAddr.
func UnpackAddr(v uint64) (ip [4]byte, port uint16) {
	binary.BigEndian.PutUint32(ip[:], uint32(v>>16))
	return ip, uint16(v)
}
