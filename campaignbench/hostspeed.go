package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The end-to-end times are reported at reference-host speed. A shared host's
// speed drifts by tens of percent over minutes, for every program on it alike,
// so a raw wall time measures the neighbours as much as the program. The
// untraced pass therefore stops whenever probeEvery of campaign time has
// passed (between experiments, so a long experiment makes a longer stretch)
// and at its end, and has a separate process, refloop, run a fixed task of
// probeUnits units. refloop imports nothing from the repository: only the host
// changes its speed. Each stretch of campaign time is scaled by refUnit over
// the unit time of the probe that ends it, and a pass's speed factor is its
// scaled time over its raw time; every time of the pass is multiplied by it.
// The reference host is thus the one on which a unit takes refUnit. The probes
// are not part of any reported time.
const (
	refUnit    = time.Millisecond
	probeUnits = 32
	probeEvery = 200 * time.Millisecond
)

// hostProbe drives the refloop process.
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	sum string // the task's checksum, the same on every probe

	last   time.Time     // end of the last probe
	spent  time.Duration // probe time within the current pass
	raw    time.Duration // campaign time of the current pass's ended stretches
	scaled float64       // the same stretches at reference speed, in ns
	probes int
}

// startProbe starts refloop, which run.sh builds next to the benchmark binary.
func startProbe() (*hostProbe, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(filepath.Dir(self), "refloop"))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting refloop: %w", err)
	}
	return &hostProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// stop ends refloop and waits for it.
func (h *hostProbe) stop() {
	h.in.Close()
	h.cmd.Wait()
}

// reset starts a new pass.
func (h *hostProbe) reset() {
	h.spent, h.raw, h.scaled, h.probes = 0, 0, 0, 0
	h.last = time.Now()
}

// maybe probes if probeEvery has passed since the last probe.
func (h *hostProbe) maybe() {
	if time.Since(h.last) >= probeEvery {
		h.probe()
	}
}

// probe runs one probe, which ends the current stretch. It panics if refloop
// fails or its checksum changes: the benchmark cannot go on without it.
func (h *hostProbe) probe() {
	start := time.Now()
	fmt.Fprintln(h.in, probeUnits)
	line, err := h.out.ReadString('\n')
	if err != nil {
		panic(fmt.Sprintf("refloop: %v", err))
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		panic(fmt.Sprintf("refloop: bad reply %q", line))
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil || ns <= 0 {
		panic(fmt.Sprintf("refloop: bad reply %q", line))
	}
	if h.sum == "" {
		h.sum = f[1]
	} else if f[1] != h.sum {
		panic(fmt.Sprintf("refloop: checksum %s, want %s", f[1], h.sum))
	}
	stretch := start.Sub(h.last)
	h.raw += stretch
	h.scaled += float64(stretch) * float64(refUnit) * probeUnits / float64(ns)
	h.probes++
	h.last = time.Now()
	h.spent += h.last.Sub(start)
}

// factor ends the current pass with a probe and returns its speed factor.
func (h *hostProbe) factor() float64 {
	h.probe()
	return h.scaled / float64(h.raw)
}
