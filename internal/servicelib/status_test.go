package servicelib

import (
	"errors"
	"fmt"
	"testing"

	"netkernel/internal/nqe"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/stack"
)

// timeoutErr stands in for the error a connection that gives up
// retransmitting ends with.
type timeoutErr struct{}

func (timeoutErr) Error() string { return "tcp: connection timed out" }
func (timeoutErr) Timeout() bool { return true }

// Every error a stack hands ServiceLib keeps its text and maps to one
// status by identity (errors.Is/As), not by searching the text, so a
// wrapped error maps like the error it wraps. Closing a socket that is
// still connecting reads "closed", not the "invalid" of a malformed job.
func TestStatusFromErr(t *testing.T) {
	for _, tc := range []struct {
		err  error
		text string
		want nqe.Status
	}{
		{nil, "", nqe.StatusOK},
		{tcp.ErrRefused, "tcp: connection refused", nqe.StatusConnRefused},
		{tcp.ErrReset, "tcp: connection reset by peer", nqe.StatusConnReset},
		{tcp.ErrAborted, "tcp: connection aborted", nqe.StatusConnReset},
		{tcp.ErrClosedBeforeEstablished, "tcp: closed before establishment", nqe.StatusClosed},
		{timeoutErr{}, "tcp: connection timed out", nqe.StatusTimeout},
		{fmt.Errorf("stack nsm: %w to %v", stack.ErrNoRoute, ipv4.Addr{10, 0, 0, 9}), "stack nsm: no route to 10.0.0.9", nqe.StatusUnreachable},
		{fmt.Errorf("stack nsm: port %d %w", 80, stack.ErrPortInUse), "stack nsm: port 80 already listening", nqe.StatusAddrInUse},
		{fmt.Errorf("stack nsm: %w", stack.ErrPortsExhausted), "stack nsm: ephemeral ports exhausted", nqe.StatusAddrInUse},
		{fmt.Errorf("stack nsm: killed"), "stack nsm: killed", nqe.StatusInvalid},
		{fmt.Errorf("migrating: %w", tcp.ErrReset), "migrating: tcp: connection reset by peer", nqe.StatusConnReset},
		{errors.New("anything else"), "anything else", nqe.StatusInvalid},
	} {
		if tc.err != nil && tc.err.Error() != tc.text {
			t.Errorf("error text %q, want %q", tc.err, tc.text)
		}
		if got := statusFromErr(tc.err); got != tc.want {
			t.Errorf("statusFromErr(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
