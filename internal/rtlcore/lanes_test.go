package rtlcore

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/lanestore"
)

// Roles a state element plays for a riding value lane: control elements
// are trusted to hold golden's value on every lane, data elements are
// carried per lane by a value plane (lanes.go).
const (
	control = "control"
	data    = "data"
)

// stateRoles declares every element of StateInventory. An element added
// to the design fails TestStateIsControlOrData until it is declared here
// — and, when it is data, given a plane the lanes carry.
var stateRoles = map[string]string{
	"pc": control, "halted": control, "stall": control,
	"ifid_ir": control, "ifid_pc": control, "ifid_valid": control, "ifid_exc": control,
	"idex_ir": control, "idex_pc": control, "idex_valid": control, "idex_exc": control,
	"exmem_ir": control, "exmem_pc": control, "exmem_valid": control, "exmem_exc": control,
	"memwb_ir": control, "memwb_pc": control, "memwb_valid": control, "memwb_exc": control,
	"regfile": data, "flags": data,
	"idex_a": data, "idex_b": data, "idex_st": data,
	"exmem_r":  data, // an ALU result; as a load or store address it peels the lane
	"exmem_st": data, "memwb_v": data,
	"l1i_tag": control, "l1i_data": control, "l1i_valid": control, "l1i_lru": control,
	"l1d_tag": control, "l1d_valid": control, "l1d_dirty": control, "l1d_lru": control,
	"l1d_data": data,
}

// elementState reads every state element's current contents by name.
func elementState(c *Core) map[string]any {
	out := map[string]any{}
	for _, r := range c.sim.RegsByPrefix("") {
		out[r.Name()] = r.Q()
	}
	for _, e := range c.StateInventory() {
		if m, ok := c.sim.MemByName(e.Name); ok {
			out[e.Name] = m.Snapshot()
		}
	}
	return out
}

// TestStateIsControlOrData holds the declaration to the design, both
// ways, and each data element to its plane: a lane diff there rebuilds
// into exactly that element. Then every latch bit goes through the latch
// group: a flip in a data latch rides as a diff that rebuilds into
// exactly FlipLatchBit's state, and a flip anywhere else, or any force,
// peels on the first tick with PeelFault and rebuilds into exactly
// FlipLatchBit's or ForceLatchBit's state.
func TestStateIsControlOrData(t *testing.T) {
	c := campaignCore(t, benchProgram(t, "qsort"))
	for i := 0; i < 3000; i++ {
		c.Step()
	}
	inv := map[string]bool{}
	for _, e := range c.StateInventory() {
		inv[e.Name] = true
		if r := stateRoles[e.Name]; r != control && r != data {
			t.Errorf("state element %s is declared neither control nor data", e.Name)
		}
	}
	for name := range stateRoles {
		if !inv[name] {
			t.Errorf("state element %s is declared but does not exist", name)
		}
	}

	groups := c.AttachLanes(fault.TargetRF, fault.TargetLatches)
	defer c.DetachLanes()
	rf, lat := groups[0], groups[1]
	latches := map[string]int{}
	for i, r := range c.dataLatches() {
		latches[r.Name()] = i
	}
	want := elementState(c)
	snap := c.Snapshot()
	view := campaignCore(t, benchProgram(t, "qsort"))
	for name, role := range stateRoles {
		if role != data {
			continue
		}
		m := rf.Machine(0)
		switch lat, ok := latches[name]; {
		case ok:
			rf.l.Set(m, kQ, uint32(lat), 1)
		case name == "regfile":
			rf.l.Set(m, kRF, 3, 1)
		case name == "l1d_data":
			rf.l.Set(m, kL1D, 5, 1)
		default:
			t.Errorf("%s is data but has no value plane", name)
			continue
		}
		rf.BeginTick()
		view.Restore(snap)
		rf.Rebuild(0, view)
		rf.Retire(0)
		for el, got := range elementState(view) {
			if differs := !reflect.DeepEqual(got, want[el]); differs != (el == name) {
				t.Errorf("a diff on %s's plane rebuilt with %s differing: %v", name, el, differs)
			}
		}
	}

	ref := campaignCore(t, benchProgram(t, "qsort"))
	for bit := 0; bit < c.LatchBits(); bit++ {
		r, _, err := c.latchAt(bit)
		if err != nil {
			t.Fatal(err)
		}
		for _, force := range []bool{false, true} {
			ref.Restore(snap)
			if force {
				err = lat.Force(0, bit, 1)
				ref.ForceLatchBit(bit, 1)
			} else {
				err = lat.Flip(0, bit)
				ref.FlipLatchBit(bit)
			}
			if err != nil {
				t.Fatal(err)
			}
			lat.BeginTick()
			peels := force || stateRoles[r.Name()] != data
			if got := lat.Peeled()&1 != 0; got != peels || peels && lat.Reason(0) != lanestore.PeelFault {
				t.Errorf("latch bit %d (%s, force %v): peeled %v (%v) on the first tick, want %v", bit, r.Name(), force, got, lat.Reason(0), peels)
			}
			view.Restore(snap)
			lat.Rebuild(0, view)
			lat.Retire(0)
			if view.StateHash() != ref.StateHash() {
				t.Errorf("latch bit %d (%s, force %v) rebuilt unlike the scalar fault", bit, r.Name(), force)
			}
		}
	}
}

// TestHeldLatchKeepsLaneDiff steps data-latch lanes through a cache-miss
// stall, when golden drives no latch: a flip there must survive the
// stall's clock edges on the lane as it does on a scalar core, and each
// lane must rebuild into its scalar core's exact state at every cycle
// until the pipeline has run past the stall.
func TestHeldLatchKeepsLaneDiff(t *testing.T) {
	p := benchProgram(t, "qsort")
	gold := campaignCore(t, p)
	for gold.Cycles() < 2000 || gold.stall.Q() == 0 {
		gold.Step()
	}
	lat := gold.AttachLanes(fault.TargetLatches)[0]
	defer gold.DetachLanes()
	snap := gold.Snapshot()
	var refs []*Core
	for i, r := range gold.dataLatches() {
		bit := 0 // the latch's top bit in the flat latch space
		for _, l := range gold.latches {
			bit += l.Width()
			if l == r {
				break
			}
		}
		ref := campaignCore(t, p)
		ref.Restore(snap)
		ref.FlipLatchBit(bit - 1)
		if err := lat.Flip(i, bit-1); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	view := campaignCore(t, p)
	for end := gold.Cycles() + gold.stall.Q() + 8; gold.Cycles() < end; {
		pre := gold.Snapshot()
		lat.BeginTick()
		for i, ref := range refs {
			if ref == nil {
				continue
			}
			view.Restore(pre)
			lat.Rebuild(i, view)
			if view.StateHash() != ref.StateHash() {
				t.Fatalf("%s: at cycle %d the lane's machine differs from the scalar one", gold.dataLatches()[i].Name(), gold.Cycles())
			}
		}
		gold.Step()
		for i, ref := range refs {
			if lat.Peeled()>>i&1 != 0 {
				refs[i] = nil
			} else if ref != nil {
				ref.Step()
			}
		}
	}
}

// TestBatchLanePeelMatchesScalar drives the full peel protocol on the
// design: an RF lane rides the golden core until its data decides
// control, the faulty machine is rebuilt from the pre-tick golden state
// plus the lane's diff, and its future must be the scalar faulty run's —
// same digest at the stop, same output, same pinout.
func TestBatchLanePeelMatchesScalar(t *testing.T) {
	p := benchProgram(t, "qsort")
	const at, bit = 2000, int(isa.SP)*32 + 4 // the stack pointer: an address
	ref := campaignCore(t, p)
	for ref.Cycles() < at {
		ref.Step()
	}
	if err := ref.FlipRFBit(bit); err != nil {
		t.Fatal(err)
	}

	gold := campaignCore(t, p)
	for gold.Cycles() < at {
		gold.Step()
	}
	rf := gold.AttachLanes(fault.TargetRF)[0]
	defer gold.DetachLanes()
	if err := rf.Flip(0, bit); err != nil {
		t.Fatal(err)
	}
	var pre *Snapshot
	for {
		pre = gold.SnapshotInto(pre)
		rf.BeginTick()
		if !gold.Step() {
			t.Fatal("golden ended with the lane riding; pick another fault")
		}
		if rf.Peeled()&1 != 0 {
			break
		}
	}
	if rf.Consumed()&1 == 0 {
		t.Fatal("peeled without reading a diff")
	}
	faulty := campaignCore(t, p)
	faulty.Restore(pre)
	rf.Rebuild(0, faulty)
	rf.Retire(0)
	for faulty.Cycles() < ref.Cycles() {
		ref.Step()
		faulty.Step()
		if faulty.StateHash() != ref.StateHash() {
			t.Fatalf("rebuilt machine diverged from the scalar run at cycle %d", faulty.Cycles())
		}
	}
	ref.Run(1 << 30)
	faulty.Run(1 << 30)
	if ref.Stop != faulty.Stop || string(ref.Output) != string(faulty.Output) || ref.StateHash() != faulty.StateHash() {
		t.Fatalf("rebuilt machine ended %v %q, the scalar run %v %q", faulty.Stop, faulty.Output, ref.Stop, ref.Output)
	}
}

// TestBatchLaneStepDoesNotAllocate: a golden step carrying lanes whose
// diffs move every cycle — re-flipped registers and L1D words, the
// journal, the edge — allocates nothing once the store's lists have
// grown.
func TestBatchLaneStepDoesNotAllocate(t *testing.T) {
	c := campaignCore(t, benchProgram(t, "qsort"))
	g := c.AttachLanes(fault.TargetRF, fault.TargetL1D)
	rf, l1d := g[0], g[1]
	defer c.DetachLanes()
	step := func() {
		for lane := 0; lane < 8; lane++ {
			_ = rf.Flip(lane, (int(c.Cycles())+lane)%c.RFBits())
			_ = l1d.Flip(lane, (int(c.Cycles())*37+lane)%c.L1DBits())
		}
		rf.BeginTick()
		l1d.BeginTick()
		c.Step()
		for _, g := range [...]*LaneGroup{rf, l1d} {
			for p := g.Peeled(); p != 0; p &= p - 1 {
				g.Retire(lowest(p))
			}
		}
	}
	for i := 0; i < 3000; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("%v allocations per lane step", n)
	}
}

func lowest(x uint64) int {
	for k := 0; ; k++ {
		if x>>k&1 != 0 {
			return k
		}
	}
}
