package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"netkernel/internal/guestlib"
)

// The calls the load generator makes into guestlib, each wrapped in a
// span by the traced run.
const (
	apiSend = iota
	apiRecv
	apiConnect
	apiAccept
	apiClose
	apiWait
	nAPI
)

var apiNames = [nAPI]string{
	"guestlib.Send", "guestlib.Recv", "guestlib.Connect",
	"guestlib.Accept", "guestlib.Close", "guestlib.Poller.Wait",
}

// maxAPISpans caps the call spans kept for the spans file; every call's
// duration still feeds the percentiles. rpc_shared makes millions of
// calls in a run, and the first slices show the same shape as the rest.
const maxAPISpans = 200_000

// span is one recorded interval of harness wall time. Parent is the
// index of the enclosing span (-1 for a root); Op is the id the spans of
// one op share (0 when the call serves no single op, e.g. Poller.Wait).
type span struct {
	name   string
	start  int64 // ns since the recorder started
	end    int64
	parent int
	op     uint64
}

// recorder keeps the traced run's spans in memory; write dumps them when
// the run ends. A nil *recorder is the untraced run: every method the
// run calls unconditionally is a no-op that reads no clock.
type recorder struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open structural spans
	nCalls int   // guestlib calls seen; only the first maxAPISpans keep a span
	// dur holds every call's duration by API; inSlice sums the time of
	// calls made inside a slice span.
	dur     [nAPI][]int64
	inSlice int64
	slicing bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now reads the span clock; 0 on the untraced run.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// parent is the innermost open structural span, -1 for none.
func (r *recorder) parent() int {
	if n := len(r.open); n > 0 {
		return r.open[n-1]
	}
	return -1
}

// begin opens a structural span (setup, slice, drain, ...) under the
// innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, start: r.now(), parent: r.parent()})
	r.open = append(r.open, len(r.spans)-1)
	r.slicing = name == "slice"
}

// end closes the innermost open structural span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.open)
	r.spans[r.open[n-1]].end = r.now()
	r.open = r.open[:n-1]
	r.slicing = false
}

// call records one guestlib call that started at start.
func (r *recorder) call(api int, start int64, op uint64) {
	if r == nil {
		return
	}
	end := r.now()
	r.dur[api] = append(r.dur[api], end-start)
	if r.slicing {
		r.inSlice += end - start
	}
	if r.nCalls++; r.nCalls <= maxAPISpans {
		r.spans = append(r.spans, span{name: apiNames[api], start: start, end: end, parent: r.parent(), op: op})
	}
}

// apiFrac is the share of slice wall time spent inside guestlib calls.
func (r *recorder) apiFrac() float64 {
	var total int64
	for _, s := range r.spans {
		if s.name == "slice" {
			total += s.end - s.start
		}
	}
	return ratio(float64(r.inSlice), float64(total))
}

// write dumps the spans as JSON with each span's self time (duration
// minus the time its children cover).
func (r *recorder) write(path string) error {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	dropped := r.nCalls - maxAPISpans
	if dropped < 0 {
		dropped = 0
	}
	fmt.Fprintf(w, "{\"unit\":\"ns\",\"api_spans_dropped\":%d,\"spans\":[", dropped)
	for i, s := range r.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"op\":%d,\"self\":%d}",
			i, s.name, s.start, s.end, s.parent, s.op, s.end-s.start-child[i])
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// guest is the load generator's handle on one VM's GuestLib: the public
// API, with each data-path call spanned when the run is traced (rec is nil
// otherwise, and a wrapper costs two nil checks).
type guest struct {
	*guestlib.GuestLib
	rec *recorder
}

func (g guest) Send(fd int32, p []byte, op uint64) int {
	t := g.rec.now()
	n := g.GuestLib.Send(fd, p)
	g.rec.call(apiSend, t, op)
	return n
}

func (g guest) Recv(fd int32, buf []byte, op uint64) (int, bool) {
	t := g.rec.now()
	n, eof := g.GuestLib.Recv(fd, buf)
	g.rec.call(apiRecv, t, op)
	return n, eof
}

func (g guest) Connect(fd int32, ip [4]byte, port uint16, op uint64) error {
	t := g.rec.now()
	err := g.GuestLib.Connect(fd, ip, port)
	g.rec.call(apiConnect, t, op)
	return err
}

func (g guest) Accept(lfd int32) (int32, bool) {
	t := g.rec.now()
	fd, ok := g.GuestLib.Accept(lfd)
	g.rec.call(apiAccept, t, 0)
	return fd, ok
}

func (g guest) AcceptBatch(lfd int32, fds []int32) int {
	t := g.rec.now()
	n := g.GuestLib.AcceptBatch(lfd, fds)
	g.rec.call(apiAccept, t, 0)
	return n
}

func (g guest) Close(fd int32, op uint64) {
	t := g.rec.now()
	g.GuestLib.Close(fd)
	g.rec.call(apiClose, t, op)
}

func (g guest) Wait(p *guestlib.Poller, events []guestlib.PollEvent) int {
	t := g.rec.now()
	n := p.Wait(events)
	g.rec.call(apiWait, t, 0)
	return n
}
