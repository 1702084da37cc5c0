package main

import (
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/proto"
	"repro/internal/wire"
)

// hostProbe says how fast the host was while a run went on: a null
// service behind the real transport and a fixed float loop, sampled
// between segments. Neither touches the system under test, so a run in
// which they are slow was disturbed from outside.
type hostProbe struct {
	srv *proto.Server
	cl  *proto.Client

	rttUS, spinMS []float64
}

type cannedHandler struct{}

func (cannedHandler) HandleMessage(wire.Message) wire.Message { return wire.QueryResponse{Value: 1} }

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hostProbe{srv: proto.Serve(ln, cannedHandler{}, proto.ServerConfig{})}
	h.cl, err = proto.Dial(ln.Addr().String(), proto.ServerConfig{})
	if err != nil {
		h.srv.Close()
		return nil, err
	}
	return h, nil
}

func (h *hostProbe) close() {
	h.cl.Close()
	h.srv.Close()
}

var spinSink float64

// nullRTT is the median of n proto.Client.Exchange round trips against
// the canned handler, in microseconds.
func (h *hostProbe) nullRTT(n int) float64 {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := h.cl.Exchange(wire.QueryRequest{T: float64(i)}); err != nil {
			continue
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	sort.Float64s(us)
	return percentile(us, 50)
}

func (h *hostProbe) sample() {
	h.rttUS = append(h.rttUS, h.nullRTT(200))
	start := time.Now()
	x := 1.0
	for i := 0; i < 2_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	spinSink = x
	h.spinMS = append(h.spinMS, float64(time.Since(start))/1e6)
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stolenSeconds is the time the hypervisor gave to other guests while a
// processor of this one had work, summed over processors, so far; 0
// where /proc/stat does not say.
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func gcPauseMS() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.PauseTotalNs) / 1e6
}
