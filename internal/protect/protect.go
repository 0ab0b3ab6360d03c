// Package protect models composable protection schemes over the
// injection targets — parity (detect-only), SECDED ECC (correct-1 /
// detect-2) and duplication-with-compare — at both abstraction levels.
//
// The model is analytic and lives outside the replay engine: Derive
// maps an unprotected campaign's result (the twin) to the result of the
// same campaign with its target protected. A protected structure
// exposes its data bits plus the scheme's overhead bits (stored check
// bits plus checker logic). For each plan index Derive draws one fault
// over that extended space; a draw landing wholly in data becomes the
// twin's fault at the same index, whose raw class the per-word arity
// rule post-processes (parity detects odd flips, SECDED corrects one
// and detects two, duplication detects any), and any other draw is an
// overhead fault classified from the scheme's detection semantics. A
// detection that cannot be corrected ends the run as campaign.ClassDUE
// — detected, unrecoverable — instead of letting the corruption
// propagate. The arms share their twin's data faults (common random
// numbers), so a protected-vs-unprotected comparison is paired and
// costs no replay.
//
// The blind spot the cross-level study exists to expose falls out of
// the overhead-region rule: a transient glitch on the checker logic
// raises a spurious detection (DUE), but a persistent stuck-at-0 on the
// same path forces the comparator quiet — detection is disarmed, the
// data stays clean, and the fault is Masked. Parity's DUE rate under
// stuck-at faults collapses accordingly (experiment E13).
package protect

import (
	"fmt"
	"strings"

	"repro/internal/fault"
)

// WordBits is the protection codeword granularity: every scheme guards
// the target's flat bit space in independent 32-bit words.
const WordBits = 32

// Scheme is one protection scheme over a target structure.
type Scheme int

// Protection schemes.
const (
	// SchemeNone leaves the structure unprotected.
	SchemeNone Scheme = iota
	// SchemeParity adds one parity bit per word: any odd number of
	// corrupted bits in a word is detected (never corrected), an even
	// number passes silently.
	SchemeParity
	// SchemeSECDED adds a Hamming(39,32) SECDED code per word: one
	// corrupted bit is corrected, two are detected, three or more may
	// alias and pass silently.
	SchemeSECDED
	// SchemeDup duplicates the structure and compares on use: any
	// corruption of either copy is detected, none is corrected (the
	// comparator cannot tell which copy is right).
	SchemeDup
)

var schemeNames = map[Scheme]string{
	SchemeNone: "none", SchemeParity: "parity",
	SchemeSECDED: "secded", SchemeDup: "dup",
}

func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme converts a CLI scheme name to a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "none", "":
		return SchemeNone, nil
	case "parity":
		return SchemeParity, nil
	case "secded", "ecc":
		return SchemeSECDED, nil
	case "dup", "dmr", "duplication":
		return SchemeDup, nil
	}
	return 0, fmt.Errorf("protect: unknown scheme %q (none, parity, secded, dup)", s)
}

// Plan maps each injection target to its protection scheme. The zero
// value protects nothing.
type Plan struct {
	schemes map[fault.Target]Scheme
}

// planOrder fixes the canonical target order of Plan.String, so equal
// plans serialise to equal strings.
var planOrder = []fault.Target{fault.TargetRF, fault.TargetL1D, fault.TargetLatches}

// Parse parses a protection spec of the form "rf=parity,l1d=secded"
// (target names as in fault.ParseTarget, scheme names as in
// ParseScheme). Empty input returns the empty plan.
func Parse(spec string) (Plan, error) {
	p := Plan{schemes: make(map[fault.Target]Scheme)}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Plan{}, fmt.Errorf("protect: malformed entry %q (want target=scheme)", part)
		}
		tgt, err := fault.ParseTarget(strings.TrimSpace(kv[0]))
		if err != nil {
			return Plan{}, err
		}
		sc, err := ParseScheme(strings.TrimSpace(kv[1]))
		if err != nil {
			return Plan{}, err
		}
		if prev, ok := p.schemes[tgt]; ok && prev != sc {
			return Plan{}, fmt.Errorf("protect: target %v assigned both %v and %v", tgt, prev, sc)
		}
		if sc != SchemeNone {
			p.schemes[tgt] = sc
		}
	}
	return p, nil
}

// targetKeys are the short target names of the spec syntax.
var targetKeys = map[fault.Target]string{
	fault.TargetRF: "rf", fault.TargetL1D: "l1d", fault.TargetLatches: "latches",
}

// TargetKey returns a target's short spec name ("rf", "l1d",
// "latches") — the form Parse accepts and String emits, for callers
// assembling protection specs programmatically.
func TargetKey(t fault.Target) string {
	if k, ok := targetKeys[t]; ok {
		return k
	}
	return t.String()
}

// String renders the plan in canonical form: targets in fixed order,
// short names, none-entries omitted. Parse(p.String()) round-trips.
func (p Plan) String() string {
	var parts []string
	for _, t := range planOrder {
		if sc, ok := p.schemes[t]; ok && sc != SchemeNone {
			parts = append(parts, targetKeys[t]+"="+sc.String())
		}
	}
	return strings.Join(parts, ",")
}

// Scheme returns the scheme protecting target t (SchemeNone if
// unprotected).
func (p Plan) Scheme(t fault.Target) Scheme { return p.schemes[t] }

// words is the number of protection words covering dataBits.
func words(dataBits int) int { return (dataBits + WordBits - 1) / WordBits }

// CheckBits is the number of stored check bits a scheme adds over
// dataBits of data: one parity bit per word, seven SECDED code bits per
// word, or a full duplicate copy.
func CheckBits(s Scheme, dataBits int) int {
	switch s {
	case SchemeParity:
		return words(dataBits)
	case SchemeSECDED:
		return CodeBits * words(dataBits)
	case SchemeDup:
		return dataBits
	}
	return 0
}

// LogicBits is the number of checker-logic bits a scheme adds over
// dataBits of data — the comparator/syndrome tree state, one bit per
// word for every scheme. Faults here attack detection itself rather
// than the stored data.
func LogicBits(s Scheme, dataBits int) int {
	if s == SchemeNone {
		return 0
	}
	return words(dataBits)
}

// OverheadBits is the total bit-space extension a protected campaign
// plans over: stored check bits plus checker logic.
func OverheadBits(s Scheme, dataBits int) int {
	return CheckBits(s, dataBits) + LogicBits(s, dataBits)
}

// Region classifies a bit of the extended injection space.
type Region int

// Extended bit-space regions. The layout is [0, dataBits) data, then
// the stored check bits, then the checker logic.
const (
	RegionData Region = iota
	RegionCheck
	RegionLogic
)

func (r Region) String() string {
	switch r {
	case RegionData:
		return "data"
	case RegionCheck:
		return "check"
	case RegionLogic:
		return "logic"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// RegionOf locates bit in the extended space of a dataBits-wide target
// protected by s.
func RegionOf(s Scheme, dataBits, bit int) Region {
	switch {
	case bit < dataBits:
		return RegionData
	case bit < dataBits+CheckBits(s, dataBits):
		return RegionCheck
	default:
		return RegionLogic
	}
}

// Action is the scheme's response to a corrupted data word.
type Action int

// Data-corruption actions.
const (
	// ActionMiss lets the corruption pass undetected.
	ActionMiss Action = iota
	// ActionDetect raises a detection that cannot be corrected (DUE).
	ActionDetect
	// ActionCorrect repairs the corruption on use (Masked).
	ActionCorrect
)

func (a Action) String() string {
	switch a {
	case ActionMiss:
		return "miss"
	case ActionDetect:
		return "detect"
	case ActionCorrect:
		return "correct"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// DataAction is the per-word arity rule: the scheme's response to
// `arity` corrupted bits within one protection word.
func DataAction(s Scheme, arity int) Action {
	if arity <= 0 {
		return ActionMiss
	}
	switch s {
	case SchemeParity:
		if arity%2 == 1 {
			return ActionDetect
		}
		return ActionMiss
	case SchemeSECDED:
		switch {
		case arity == 1:
			return ActionCorrect
		case arity == 2:
			return ActionDetect
		default:
			return ActionMiss // ≥3 may alias past the code
		}
	case SchemeDup:
		return ActionDetect
	}
	return ActionMiss
}

// EvalSpan folds the per-word arity rule over a corrupted data-bit span
// [lo, hi): a detection in any word dominates (the machine stops on the
// first uncorrectable detection), otherwise the span is Correct only if
// every corrupted word is corrected; any silently-missed word leaves
// the raw outcome standing.
func EvalSpan(s Scheme, lo, hi int) Action {
	if s == SchemeNone || hi <= lo {
		return ActionMiss
	}
	allCorrect := true
	for w := lo / WordBits; w <= (hi-1)/WordBits; w++ {
		wlo, whi := w*WordBits, (w+1)*WordBits
		if wlo < lo {
			wlo = lo
		}
		if whi > hi {
			whi = hi
		}
		switch DataAction(s, whi-wlo) {
		case ActionDetect:
			return ActionDetect
		case ActionMiss:
			allCorrect = false
		}
	}
	if allCorrect {
		return ActionCorrect
	}
	return ActionMiss
}

// OverheadDUE decides the fate of a fault landing in the overhead
// region: true means the scheme raises a detection it cannot attribute
// to data (DUE), false means the fault is silent (Masked — the data
// itself is clean).
//
// Stored check bits: a corrupted parity bit or duplicate copy trips the
// compare on next use (spurious DUE); a corrupted SECDED check bit is
// localised by its own syndrome and corrected (Masked). Checker logic:
// any glitch or asserted-1 fault raises a spurious detection (DUE) —
// except a persistent fault forcing the checker output to 0, which
// disarms detection entirely while the data stays clean (Masked). That
// exception is the parity-vs-stuck-at blind spot.
func OverheadDUE(s Scheme, reg Region, model fault.Model, stuck int) bool {
	switch reg {
	case RegionCheck:
		return s == SchemeParity || s == SchemeDup
	case RegionLogic:
		return !model.Persistent() || stuck != 0 // a forced 0 disarms detection: the blind spot
	}
	return false
}
