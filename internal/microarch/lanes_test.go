package microarch

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Roles a field plays for a riding value lane: control fields are
// trusted to hold golden's value on every lane, data fields are carried
// per lane by a value plane (lanes.go).
const (
	control = "control"
	data    = "data"
)

// uopRoles and cpuRoles declare every field of uop and CPU. A field added
// to either struct fails TestFieldsAreControlOrData until it is declared
// here — and, when it is data, given a plane the lanes carry.
var uopRoles = map[string]string{
	"seq": control, "pc": control, "inst": control,
	"dst": control, "oldDst": control, "dstAr": control, "src1": control, "src2": control, "src3": control,
	"writesFlags": control, "flagProducer": control, "flagsIn": data,
	"inIQ": control, "issued": control, "executed": control, "squashed": control, "execDone": control,
	"result": data, "flags": data, "taken": control, "target": control,
	"predTaken": control, "predTarget": control, "ratSnap": control, "flagSnap": control,
	"flagsInSnap": data, "mispredicted": control, "recovered": control,
	"isLoad": control, "isStore": control, "size": control, "addr": control, "addrReady": control,
	"storeVal": data, "fault": control, "faultWord": control,
}

var cpuRoles = map[string]string{
	"cfg":    control,
	"Mem":    data, // bytes; a diff moves there with a diverged write-back
	"L1I":    control,
	"L1D":    data, // data bytes; tags, valid, dirty and LRU state are control
	"Pinout": control, "prf": data, "prfReady": control, "rat": control, "arat": control,
	"freeList": control, "archFlags": data,
	"uops":    data, // per uopRoles
	"uopFree": control, "retiredFlags": control, "specFlagProducer": control,
	"fetchPC": control, "fetchStallUntil": control, "decq": control,
	"rob": control, "iq": control, "lsq": control, "inflight": control,
	"bimodal": control, "ras": control, "rasLen": control,
	"ltRF": control, "lanes": control,
	"lsuBusyUntil": control, "mulBusyUntil": control,
	"Cycles": control, "Insts": control, "seq": control,
	"Output": data, "Stop": control, "ExitCode": control, "FaultDesc": control,
}

// TestFieldsAreControlOrData holds the two declarations to the structs,
// both ways, and each uop data field to its plane: a lane diff there
// rebuilds into exactly that field.
func TestFieldsAreControlOrData(t *testing.T) {
	for _, st := range []struct {
		typ   reflect.Type
		roles map[string]string
	}{{reflect.TypeOf(uop{}), uopRoles}, {reflect.TypeOf(CPU{}), cpuRoles}} {
		for i := 0; i < st.typ.NumField(); i++ {
			if name := st.typ.Field(i).Name; st.roles[name] != control && st.roles[name] != data {
				t.Errorf("%s.%s is declared neither control nor data", st.typ.Name(), name)
			}
		}
		for name := range st.roles {
			if _, ok := st.typ.FieldByName(name); !ok {
				t.Errorf("%s.%s is declared but does not exist", st.typ.Name(), name)
			}
		}
	}

	c := midRunCPU(t)
	rf := c.AttachLanes(fault.TargetRF)[0]
	defer c.DetachLanes()
	s := c.rob.at(0)
	planes := map[string]uint8{
		"result": kResult, "storeVal": kStoreVal, "flags": kFlags, "flagsIn": kFlagsIn, "flagsInSnap": kFlagsInSnap,
	}
	for name, role := range uopRoles {
		if role != data {
			continue
		}
		kind, ok := planes[name]
		if !ok {
			t.Errorf("uop.%s is data but has no value plane", name)
			continue
		}
		rf.l.Set(rf.Machine(0), kind, uint32(s), 1)
		rf.BeginTick()
		view := c.Clone()
		rf.Rebuild(0, view)
		rf.Retire(0)
		got, want := reflect.ValueOf(view.uops[s]), reflect.ValueOf(c.uops[s])
		for i := 0; i < got.NumField(); i++ {
			f := got.Type().Field(i).Name
			if differs := fmt.Sprint(got.Field(i)) != fmt.Sprint(want.Field(i)); differs != (f == name) {
				t.Errorf("a diff on uop.%s's plane rebuilt with %s differing: %v", name, f, differs)
			}
		}
	}
}

// TestValueLaneCacheEvents drives one L1D lane through the cache's line
// traffic: a store overwrites just the bytes it writes, a corrupted clean
// line evicted is gone, a corrupted dirty line evicted diverges the pinout
// and leaves its diff in memory, and refilling the line brings it back.
func TestValueLaneCacheEvents(t *testing.T) {
	c := campaignCPU(t, assemble(t, "hlt\n"))
	l1d := c.AttachLanes(fault.TargetL1D)[0]
	defer c.DetachLanes()
	l, d := l1d.l, c.L1D
	m := l1d.Machine(0)
	sets := d.Config().Sets() * d.Config().LineBytes // addresses this far apart share a set
	access := func(addr uint32, store bool) *cache.Result {
		t.Helper()
		var res cache.Result
		ok := true
		if store {
			ok = d.StoreByte(addr, 0x5A, &res)
		} else {
			_, ok = d.LoadByte(addr, &res)
		}
		if !ok {
			t.Fatalf("access %#x failed", addr)
		}
		l.access(&res)
		if store {
			l.store(0, l.index(&res, addr), 1) // slot 0 carries no store diff
		}
		return &res
	}
	evict := func(addr uint32) {
		for k := 1; k <= d.Config().Ways; k++ {
			access(addr+uint32(k*sets), false)
		}
	}
	flip := func(addr uint32, bit int) {
		t.Helper()
		i, ok := d.Resident(addr)
		if !ok {
			t.Fatalf("%#x not resident", addr)
		}
		if err := l1d.Flip(0, i*8+bit); err != nil {
			t.Fatal(err)
		}
	}
	const a = 0x10000

	// A byte store beside a flip overwrites its own byte only.
	access(a, false)
	flip(a, 3)
	flip(a+1, 3)
	access(a, true)
	if got := l.Get(m, kL1D, uint32(mustResident(t, d, a+1))); got != 1<<3 || l.Get(m, kL1D, uint32(mustResident(t, d, a))) != 0 {
		t.Fatalf("after a byte store the neighbour's diff is %#x and the stored byte's %#x; want 0x8 and 0",
			got, l.Get(m, kL1D, uint32(mustResident(t, d, a))))
	}

	// The line is dirty now: evicting it writes the corruption back.
	evict(a)
	if !l.WB.Has(m) || !l.Mem.Has(m) || l.L1D.Has(m) {
		t.Fatalf("dirty eviction: diverged %v, memory diff %v, L1D diff %v; want true, true, false",
			l.WB.Has(m), l.Mem.Has(m), l.L1D.Has(m))
	}
	if wbs := l1d.AppendDiverged(0, nil); len(wbs) != 1 || wbs[0].Addr != a || wbs[0].Kind != trace.KindWriteback {
		t.Fatalf("diverged write-backs %+v, want one of %#x", wbs, a)
	}
	if l1d.Clean(0) {
		t.Fatal("a lane with a diverged write-back reads clean")
	}
	// Refilling the line brings the diff back from memory.
	access(a, false)
	if got := l.Get(m, kL1D, uint32(mustResident(t, d, a+1))); got != 1<<3 {
		t.Fatalf("refilled byte diff %#x, want 0x8", got)
	}

	// A corrupted clean line evicted is dropped with the line.
	l1d.Retire(0)
	access(a+4*uint32(sets)+8, false) // a fresh clean line
	flip(a+4*uint32(sets)+8, 0)
	evict(a + 4*uint32(sets) + 8)
	if !l1d.Clean(0) {
		t.Fatal("evicting a clean line kept its diff")
	}
}

func mustResident(t *testing.T, d *cache.Cache, addr uint32) int {
	t.Helper()
	i, ok := d.Resident(addr)
	if !ok {
		t.Fatalf("%#x not resident", addr)
	}
	return i
}

// TestValueLaneGroupsAreSeparateMachines: lane k of the register-file
// group and lane k of the L1D group are two machines — a diff one takes
// on never shows on the other, whichever structure it lands in.
func TestValueLaneGroupsAreSeparateMachines(t *testing.T) {
	c := midRunCPU(t)
	g := c.AttachLanes(fault.TargetRF, fault.TargetL1D)
	rf, l1d := g[0], g[1]
	defer c.DetachLanes()
	if err := rf.Flip(0, 5*32+1); err != nil {
		t.Fatal(err)
	}
	if err := l1d.Flip(0, 9); err != nil {
		t.Fatal(err)
	}
	// Carry each into the other's structure too.
	rf.l.Set(rf.Machine(0), kL1D, 40, 0x10)
	l1d.l.Set(l1d.Machine(0), kPRF, 7, 0x100)
	rf.BeginTick()
	l1d.BeginTick()
	for _, tc := range []struct {
		g        *LaneGroup
		own      int    // the register the group's own diffs sit in
		ownX     uint32 // and their value
		other    int    // the other group's register
		otherBit int    // and its L1D bit
	}{{rf, 5, 1 << 1, 7, 9}, {l1d, 7, 0x100, 5, 40*8 + 4}} {
		view := c.Clone()
		tc.g.Rebuild(0, view)
		if view.prf[tc.own]^c.prf[tc.own] != tc.ownX || view.prf[tc.other] != c.prf[tc.other] {
			t.Errorf("group %d: the rebuild mixed the groups' register diffs", tc.g.G)
		}
		if view.L1D.DataBit(tc.otherBit) != c.L1D.DataBit(tc.otherBit) {
			t.Errorf("group %d: the rebuild took the other group's L1D diff", tc.g.G)
		}
	}
}

// TestValueLaneUndo: a lane peeled mid-tick is rebuilt as it stood when
// the tick began, though the tick already overwrote its diffs.
func TestValueLaneUndo(t *testing.T) {
	c := midRunCPU(t)
	rf := c.AttachLanes(fault.TargetRF)[0]
	defer c.DetachLanes()
	if err := rf.Flip(0, 3*32); err != nil {
		t.Fatal(err)
	}
	want := c.Clone()
	want.prf[3] ^= 1
	rf.BeginTick()
	m := rf.Machine(0)
	rf.l.Set(m, kPRF, 3, 0)                      // overwritten by a write-back
	rf.l.Set(m, kResult, uint32(c.rob.at(0)), 2) // and a new diff taken on
	view := c.Clone()
	rf.Rebuild(0, view)
	if view.StateHash() != want.StateHash() {
		t.Fatal("the rebuild is not the machine the tick began with")
	}
}

// TestValueLaneSlotFree: a uop slot that returns to the free list — a
// squash, a commit, a recovery — takes its diffs with it.
func TestValueLaneSlotFree(t *testing.T) {
	c := midRunCPU(t)
	rf := c.AttachLanes(fault.TargetRF)[0]
	defer c.DetachLanes()
	s := c.rob.at(c.rob.n - 1)
	rf.l.Set(rf.Machine(0), kStoreVal, uint32(s), 0xFF)
	if !rf.l.uop[s].Any() {
		t.Fatal("the diff did not land")
	}
	c.squash(s)
	if rf.l.uop[s].Any() || rf.l.Get(rf.Machine(0), kStoreVal, uint32(s)) != 0 {
		t.Fatal("a squashed slot kept its lane diff")
	}
}

// TestLaneStoresRecycleAcrossGoroutines attaches and detaches value lanes
// on several CPUs at once, as a pool's goroutines do: the stores they
// recycle through the shared free list must come back golden.
func TestLaneStoresRecycleAcrossGoroutines(t *testing.T) {
	p := assemble(t, "hlt\n")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c := campaignCPU(t, p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g := c.AttachLanes(fault.TargetRF, fault.TargetL1D)
				rf, l1d := g[0], g[1]
				if !rf.Clean(i%64) || !l1d.Clean(i%64) {
					t.Error("a recycled store carried a diff")
				}
				if err := rf.Flip(i%64, i); err != nil {
					t.Error(err)
				}
				if err := l1d.Flip(i%64, i); err != nil {
					t.Error(err)
				}
				c.DetachLanes()
			}
		}()
	}
	wg.Wait()
}
