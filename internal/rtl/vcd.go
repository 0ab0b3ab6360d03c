package rtl

// VCD (Value Change Dump, IEEE 1364) waveform output: the standard
// artefact an RTL simulator produces for debugging. Attach a dumper to a
// simulator to record every registered signal's value changes; the
// resulting file loads in GTKWave and similar viewers. Memories are not
// dumped (as in most real flows, arrays are traced via dedicated probes).

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// VCDDumper streams value changes of selected signals to a writer.
type VCDDumper struct {
	w       io.Writer
	sim     *Simulator
	signals []*Signal
	ids     []string
	last    []uint64
	started bool
	err     error
}

// NewVCDDumper creates a dumper over the given signals (or, when none are
// passed, every signal of the design — including register outputs) and
// writes the VCD header. Call Sample after each Tick.
func NewVCDDumper(w io.Writer, sim *Simulator, signals ...*Signal) (*VCDDumper, error) {
	if len(signals) == 0 {
		signals = append([]*Signal(nil), sim.signals...)
		sort.Slice(signals, func(i, j int) bool { return signals[i].name < signals[j].name })
	}
	d := &VCDDumper{
		w:       w,
		sim:     sim,
		signals: signals,
		ids:     make([]string, len(signals)),
		last:    make([]uint64, len(signals)),
	}
	for i := range signals {
		d.ids[i] = vcdID(i)
	}
	if err := d.header(); err != nil {
		return nil, err
	}
	return d, nil
}

// vcdID produces the compact printable identifiers VCD uses ("!", "\"",
// ..., "!!", ...).
func vcdID(i int) string {
	const lo, hi = 33, 127 // printable ASCII range per the VCD grammar
	var sb strings.Builder
	for {
		sb.WriteByte(byte(lo + i%(hi-lo)))
		i /= hi - lo
		if i == 0 {
			return sb.String()
		}
		i--
	}
}

func (d *VCDDumper) header() error {
	fmt.Fprintf(d.w, "$date %s $end\n", time.Time{}.Format("2006-01-02"))
	fmt.Fprintf(d.w, "$version repro rtl kernel $end\n")
	fmt.Fprintf(d.w, "$timescale 1ns $end\n")
	fmt.Fprintf(d.w, "$scope module core $end\n")
	for i, s := range d.signals {
		name := strings.ReplaceAll(s.name, " ", "_")
		fmt.Fprintf(d.w, "$var wire %d %s %s $end\n", s.width, d.ids[i], name)
	}
	fmt.Fprintf(d.w, "$upscope $end\n$enddefinitions $end\n")
	_, err := fmt.Fprintf(d.w, "$dumpvars\n")
	return err
}

// Sample records the current cycle's values, emitting only changes (and
// everything on the first call).
func (d *VCDDumper) Sample() error {
	if d.err != nil {
		return d.err
	}
	stamped := false
	for i, s := range d.signals {
		v := s.Get()
		if d.started && v == d.last[i] {
			continue
		}
		if !stamped {
			if _, err := fmt.Fprintf(d.w, "#%d\n", d.sim.CycleCount); err != nil {
				d.err = err
				return err
			}
			stamped = true
		}
		d.last[i] = v
		var err error
		if s.width == 1 {
			_, err = fmt.Fprintf(d.w, "%d%s\n", v, d.ids[i])
		} else {
			_, err = fmt.Fprintf(d.w, "b%s %s\n", strconv.FormatUint(v, 2), d.ids[i])
		}
		if err != nil {
			d.err = err
			return err
		}
	}
	d.started = true
	return nil
}
