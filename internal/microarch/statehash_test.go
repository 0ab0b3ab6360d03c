package microarch

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// Tests of the packed state digest (DESIGN.md "State digest"). Packing
// fields into words by hand can drop a field or overlap two bit ranges;
// these tests hold the packing to the structs by reflection, so a field
// added later without digest coverage fails here.

// midRunCPU steps qsort until the window is busy: at least eight uops in
// the ROB, something in the decode queue and a live flag producer.
func midRunCPU(t *testing.T) *CPU {
	t.Helper()
	c := campaignCPU(t, benchProgram(t, "qsort"))
	for c.Cycles < 2_000 || c.rob.n < 8 || c.decq.n == 0 || c.specFlagProducer == noSlot {
		if !c.Step() {
			t.Fatal("program ended before the window filled")
		}
	}
	return c
}

// fieldCheck mutates one struct in place, field by field, and holds
// StateHash to each mutation.
type fieldCheck struct {
	t *testing.T
	c *CPU
	// excluded names the fields the digest deliberately ignores, with the
	// reason; mutating one must leave the digest alone (so the list
	// cannot rot either). A path names a field and everything under it.
	excluded map[string]string
	// slots names the fields that hold a slab index: they are moved
	// between valid references instead of having bits flipped.
	slots map[string][]slot
	// width caps the bits flipped in a field the digest folds narrower
	// than its type.
	width map[string]int
}

func (fc fieldCheck) mutated(path string, base uint64) {
	fc.t.Helper()
	changed := fc.c.StateHash() != base
	for prefix, why := range fc.excluded {
		if path == prefix || strings.HasPrefix(path, prefix+".") {
			if changed {
				fc.t.Errorf("%s is excluded from the digest (%s) but moved it", path, why)
			}
			return
		}
	}
	if !changed {
		fc.t.Errorf("mutating %s left StateHash unchanged", path)
	}
}

// walk visits every leaf under v (addressable, possibly unexported).
func (fc fieldCheck) walk(v reflect.Value, path string, base uint64) {
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // lift the unexported-field write ban
	if alts, ok := fc.slots[path]; ok {
		old := v.Int()
		for _, s := range alts {
			if int64(s) != old {
				v.SetInt(int64(s))
				fc.mutated(path, base)
			}
		}
		v.SetInt(old)
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fc.walk(v.Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), base)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fc.walk(v.Index(i), path, base)
		}
	case reflect.Bool:
		v.SetBool(!v.Bool())
		fc.mutated(path, base)
		v.SetBool(!v.Bool())
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		for bit := 0; bit < v.Type().Bits(); bit++ {
			old := v.Int()
			v.SetInt(old ^ int64(1)<<bit) // SetInt truncates to the field's width
			fc.mutated(path, base)
			v.SetInt(old)
		}
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		width := v.Type().Bits()
		if w, ok := fc.width[path]; ok {
			width = w
		}
		for bit := 0; bit < width; bit++ {
			old := v.Uint()
			v.SetUint(old ^ uint64(1)<<bit)
			fc.mutated(path, base)
			v.SetUint(old)
		}
	default:
		fc.t.Fatalf("%s: kind %v has no mutation; teach the test (and StateHash) about it", path, v.Kind())
	}
}

// fill sets every leaf under v to all zeros or all ones. All ones makes
// every int16 register name and slot -1 (noSlot): a packing that
// sign-extends one field over its neighbours, or ORs two fields into the
// same bits, hides the neighbours' mutations under this base.
func fill(v reflect.Value, ones bool) {
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), ones)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), ones)
		}
	case reflect.Bool:
		v.SetBool(ones)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0)
		if ones {
			v.SetInt(-1)
		}
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0)
		if ones {
			v.SetUint(^uint64(0))
		}
	}
}

// overBases walks the struct at v three times: as the run left it, then
// filled with zeros, then with ones.
func (fc fieldCheck) overBases(v reflect.Value) {
	fc.t.Helper()
	for _, base := range []string{"live", "zeros", "ones"} {
		if base != "live" {
			fill(v, base == "ones")
		}
		fc.walk(v, "", fc.c.StateHash())
		if fc.t.Failed() {
			fc.t.Fatalf("(over the %s entry)", base)
		}
	}
}

// TestUopDigestCoversEveryField mutates each field of an in-ROB uop in
// turn — every bit of every integer, over the live uop, an all-zeros
// and an all-ones one — and requires StateHash to change every time. No
// uop field is excluded: seq enters as an age (see
// TestDigestIgnoresAbsoluteSeq), shifted over eight status bits, so its
// top byte is out of the digest's reach — as it is out of any run's.
func TestUopDigestCoversEveryField(t *testing.T) {
	c := midRunCPU(t)
	s := c.rob.at(c.rob.n / 2)
	u := reflect.ValueOf(&c.uops[s]).Elem()
	others := []slot{noSlot, c.rob.at(0), c.rob.at(c.rob.n - 1)}
	fc := fieldCheck{
		t: t, c: c,
		slots: map[string][]slot{"flagProducer": others, "flagSnap": others},
		width: map[string]int{"seq": 56},
	}
	fc.overBases(u)
}

// TestFetchedDigestCoversEveryField is the same check on a decode-queue
// entry, whose decoded form is the one documented exclusion.
func TestFetchedDigestCoversEveryField(t *testing.T) {
	c := midRunCPU(t)
	f := reflect.ValueOf(&c.decq.buf[c.decq.index(0)]).Elem()
	fc := fieldCheck{t: t, c: c, excluded: map[string]string{
		"inst":        "a pure function of word",
		"undecodable": "a pure function of word",
	}}
	fc.overBases(f)
}

// TestDigestIgnoresAbsoluteSeq: only the order of sequence numbers is
// ever compared, so sliding the counter and every uop's seq together —
// what a replay that squashed a different number of wrong-path
// instructions than golden looks like once it has reconverged — must
// leave the digest alone, while sliding one uop alone must not.
func TestDigestIgnoresAbsoluteSeq(t *testing.T) {
	c := midRunCPU(t)
	base := c.StateHash()
	c.seq += 1000
	for i := range c.uops {
		c.uops[i].seq += 1000
	}
	if c.StateHash() != base {
		t.Error("sliding every sequence number together moved the digest")
	}
	c.uops[c.rob.at(0)].seq--
	if c.StateHash() == base {
		t.Error("aging one uop left the digest unchanged")
	}
}

// TestStateHashCoversRegisterState flips every bit of the packed
// CPU-level arrays and scalars and requires the digest to move.
func TestStateHashCoversRegisterState(t *testing.T) {
	c := midRunCPU(t)
	c.rasPush(0x1234)
	base := c.StateHash()
	check := func(what string, i int) {
		t.Helper()
		if c.StateHash() == base {
			t.Errorf("mutating %s[%d] left StateHash unchanged", what, i)
		}
	}
	for i := range c.prf {
		for bit := 0; bit < 32; bit++ {
			c.prf[i] ^= 1 << bit
			check("prf", i)
			c.prf[i] ^= 1 << bit
		}
	}
	for i := 0; i < c.cfg.NumPhysRegs; i++ {
		c.prfReady ^= 1 << i
		check("prfReady", i)
		c.prfReady ^= 1 << i
	}
	for name, p := range map[string][]int16{"rat": c.rat[:], "arat": c.arat[:], "freeList": c.freeList} {
		for i := range p {
			for bit := 0; bit < 16; bit++ {
				p[i] ^= 1 << bit
				check(name, i)
				p[i] ^= 1 << bit
			}
		}
	}
	for i := range c.ras[:c.rasLen] {
		for bit := 0; bit < 32; bit++ {
			c.ras[i] ^= 1 << bit
			check("ras", i)
			c.ras[i] ^= 1 << bit
		}
	}
	for i := range c.bimodal {
		c.bimodal[i] ^= 2
		check("bimodal", i)
		c.bimodal[i] ^= 2
	}
	// Scalars: each flip is its own inverse.
	for name, flip := range map[string]func(){
		"archFlags":       func() { c.archFlags.C = !c.archFlags.C },
		"fetchPC":         func() { c.fetchPC ^= 1 << 31 },
		"fetchStallUntil": func() { c.fetchStallUntil ^= 1 << 63 },
		"lsuBusyUntil":    func() { c.lsuBusyUntil ^= 1 << 63 },
		"mulBusyUntil":    func() { c.mulBusyUntil ^= 1 << 63 },
		"Cycles":          func() { c.Cycles ^= 1 << 63 },
	} {
		flip()
		check(name, 0)
		flip()
	}
	// Lengths, and the one CPU-level uop reference.
	c.freeList = c.freeList[:len(c.freeList)-1]
	check("freeList length", 0)
	c.freeList = c.freeList[:len(c.freeList)+1]
	c.rasLen--
	check("rasLen", 0)
	c.rasLen++
	c.Output = append(c.Output, 0)
	check("Output", len(c.Output)-1)
	c.Output = c.Output[:len(c.Output)-1]
	spec := c.specFlagProducer
	c.specFlagProducer = noSlot
	check("specFlagProducer", 0)
	c.specFlagProducer = spec
	if c.StateHash() != base {
		t.Error("undoing every mutation did not restore the digest")
	}
}

// TestStateHashDoesNotAllocate: a digest is taken every 64 cycles of
// every early-stop replay, next to a Step that allocates nothing.
func TestStateHashDoesNotAllocate(t *testing.T) {
	c := midRunCPU(t)
	if n := testing.AllocsPerRun(100, func() { c.StateHash() }); n != 0 {
		t.Errorf("StateHash allocates %v times", n)
	}
}
