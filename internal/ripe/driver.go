package ripe

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/vm"
)

// Defense is a named protection configuration under test.
type Defense struct {
	Name string
	Cfg  core.Config
}

// Defenses returns the configurations evaluated in §5.1 plus the Fig. 5
// matrix rows.
func Defenses() []Defense {
	return []Defense{
		{"none", core.Config{}},
		{"dep", core.Config{DEP: true}},
		{"aslr", core.Config{ASLR: true}},
		{"cookies", core.Config{StackCookies: true}},
		{"dep+aslr+cookies", core.Config{DEP: true, ASLR: true, StackCookies: true}},
		{"modern", core.Config{DEP: true, ASLR: true, StackCookies: true, Fortify: true, PtrMangle: true}},
		{"cfi", core.Config{Protect: core.CFI, DEP: true}},
		{"safestack", core.Config{Protect: core.SafeStack, DEP: true}},
		{"cps", core.Config{Protect: core.CPS, DEP: true}},
		{"cpi", core.Config{Protect: core.CPI, DEP: true}},
		{"pac", core.Config{Protect: core.PAC, DEP: true}},
	}
}

// DefenseByName returns the named defense.
func DefenseByName(name string) (Defense, error) {
	for _, d := range Defenses() {
		if d.Name == name {
			return d, nil
		}
	}
	return Defense{}, fmt.Errorf("ripe: unknown defense %q", name)
}

// Outcome classifies one attack attempt.
type Outcome uint8

// Outcomes. Success means arbitrary code execution was achieved; Prevented
// means a defense mechanism detected or neutralized the attack; Failed
// means the attack broke for intrinsic reasons (NUL bytes the carrier could
// not copy, a missed ASLR guess, a crash before reaching the target).
const (
	Success Outcome = iota
	Prevented
	Failed
)

var outcomeNames = [...]string{"SUCCESS", "prevented", "failed"}

func (o Outcome) String() string { return outcomeNames[o] }

// Result is the outcome of one attack under one defense.
type Result struct {
	Attack  Attack
	Defense string
	Outcome Outcome
	Trap    vm.TrapKind
	Detail  string
}

// layout is the white-box layout information gathered by the probe run.
type layout struct {
	bufAddr uint64
	tgtAddr uint64
	tgtSafe bool
	atkAddr uint64 // staging global (hosts fake vtables for indirect)
	shell   uint64
	gadget  uint64
	probed  bool
}

// discover runs the program benignly and records addresses at probe_point.
func discover(prog *core.Program, a Attack) (layout, error) {
	m, err := prog.NewMachine()
	if err != nil {
		return layout{}, err
	}
	var lay layout
	m.SetHook("probe_point", func(mm *vm.Machine) {
		if lay.probed {
			return
		}
		lay.probed = true
		atk := mm.Attacker(true)
		lay.shell, _ = mm.FuncAddr("shell")
		lay.gadget = atk.GadgetAddr()
		lay.atkAddr, _ = mm.GlobalAddr("atk")
		heap := atk.HeapAddr()

		switch a.Target {
		case Ret, FuncPtrStackVar, LongjmpBufStack:
			lay.bufAddr, _, _ = mm.FrameObjAddr("vuln", "buf")
		case StructFuncPtrStack:
			lay.bufAddr, _, _ = mm.FrameObjAddr("vuln", "o")
		case FuncPtrHeap, StructFuncPtrHeap, LongjmpBufHeap:
			lay.bufAddr = heap
		case FuncPtrBSS, FuncPtrData, LongjmpBufBSS, LongjmpBufData:
			lay.bufAddr, _ = mm.GlobalAddr("g_buf")
		case StructFuncPtrBSS, StructFuncPtrData:
			lay.bufAddr, _ = mm.GlobalAddr("g_obj")
		}

		switch a.Target {
		case Ret:
			lay.tgtAddr, lay.tgtSafe, _ = mm.RetSlot("vuln")
		case FuncPtrStackVar:
			lay.tgtAddr, lay.tgtSafe, _ = mm.FrameObjAddr("vuln", "fp")
		case FuncPtrHeap, StructFuncPtrHeap:
			lay.tgtAddr = heap + 32
		case FuncPtrBSS, FuncPtrData:
			lay.tgtAddr, _ = mm.GlobalAddr("g_fp")
		case StructFuncPtrStack:
			base, safe, _ := mm.FrameObjAddr("vuln", "o")
			lay.tgtAddr, lay.tgtSafe = base+32, safe
		case StructFuncPtrBSS, StructFuncPtrData:
			base, _ := mm.GlobalAddr("g_obj")
			lay.tgtAddr = base + 32
		case LongjmpBufStack:
			lay.tgtAddr, lay.tgtSafe, _ = mm.FrameObjAddr("vuln", "jb")
		case LongjmpBufHeap:
			lay.tgtAddr = heap + 32
		case LongjmpBufBSS, LongjmpBufData:
			lay.tgtAddr, _ = mm.GlobalAddr("g_jb")
		}
	})
	r := m.Run("main")
	if !lay.probed {
		return lay, fmt.Errorf("probe never reached (trap %v)", r.Trap)
	}
	return lay, nil
}

// goalAddr picks the payload's jump target.
func goalAddr(a Attack, lay layout) uint64 {
	switch a.Payload {
	case Shellcode:
		if a.Technique == Indirect {
			return lay.atkAddr // injected bytes live in the staging global
		}
		return lay.bufAddr
	case Ret2Libc:
		return lay.shell
	default:
		return lay.gadget
	}
}

// le8 renders a little-endian word.
func le8(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// buildInput assembles the direct-technique payload: optionally a fake
// vtable, padding up to the target, then the value that overwrites it.
func buildInput(a Attack, lay layout, goal uint64) []byte {
	dist := int64(32) // nominal when spaces differ (attack will fail anyway)
	if !lay.tgtSafe && lay.tgtAddr > lay.bufAddr &&
		lay.tgtAddr-lay.bufAddr < 4096 {
		dist = int64(lay.tgtAddr - lay.bufAddr)
	}
	in := make([]byte, 0, dist+16)
	value := goal
	if a.Target.isStructTarget() {
		// Fake vtable at the buffer start; the slot gets the buffer addr.
		in = append(in, le8(goal)...)
		value = lay.bufAddr
	}
	for int64(len(in)) < dist {
		in = append(in, 'A')
	}
	in = append(in, le8(value)...)
	return in
}

func (t Target) isStructTarget() bool {
	switch t {
	case StructFuncPtrStack, StructFuncPtrHeap, StructFuncPtrBSS, StructFuncPtrData:
		return true
	}
	return false
}

// Run mounts one attack against one defense and classifies the outcome.
//
// Attack programs compile with register promotion disabled: RIPE's attack
// forms are defined against memory-resident victims (its C sources target
// unoptimized victim placement), and several stack-variable targets are
// plain scalars that promotion would lift out of memory entirely — turning
// "the defense stopped the attack" into "there was nothing to attack" and
// silently shifting the §5.1 tables. The promotion-invariance test compiles
// the same attacks promoted (RunPromoted) and checks that protection only
// ever gets stronger.
func Run(a Attack, d Defense, seed int64) (Result, error) {
	return run(a, d, seed, false)
}

// RunPromoted mounts one attack with the default (register-promoted)
// compilation, for the promotion-invariance tests.
func RunPromoted(a Attack, d Defense, seed int64) (Result, error) {
	return run(a, d, seed, true)
}

func run(a Attack, d Defense, seed int64, promote bool) (Result, error) {
	res := Result{Attack: a, Defense: d.Name, Outcome: Failed}
	cfg := d.Cfg
	cfg.Seed = seed
	cfg.NoPromote = !promote
	prog, err := core.Compile(Source(a), cfg)
	if err != nil {
		return res, fmt.Errorf("%s: compile: %w", a, err)
	}

	lay, err := discover(prog, a)
	if err != nil {
		return res, fmt.Errorf("%s: discover: %w", a, err)
	}
	goal := goalAddr(a, lay)

	// Build the run configuration (input for direct, hook for indirect).
	attackProg := *prog
	if a.Technique == Direct {
		// Direct attacks have no read primitive: under ASLR the absolute
		// addresses in the payload are guesses. A throwaway machine
		// provides the seeded guess stream.
		gm, err := prog.NewMachine()
		if err != nil {
			return res, err
		}
		atk := gm.Attacker(false)
		goal = atk.GuessOf(goal)
		lay2 := lay
		lay2.bufAddr = atk.GuessOf(lay.bufAddr)
		attackProg.Cfg.Input = buildInput(a, lay2, goal)
	} else if a.Payload == Shellcode {
		attackProg.Cfg.Input = []byte{0x90, 0x90, 0x90, 0x90}
	}

	m, err := attackProg.NewMachine()
	if err != nil {
		return res, err
	}
	if a.Technique == Indirect {
		// Write-what-where primitive. Like RIPE's attack forms it carries
		// no separate information leak: under ASLR, randomized segments
		// must be guessed (fixed non-PIE segments need no guess).
		m.SetHook("attack_point", func(mm *vm.Machine) {
			if lay.tgtSafe {
				return // the slot is not addressable: nothing to write
			}
			atk := mm.Attacker(false)
			g := atk.GuessOf(goal)
			slot := atk.GuessOf(lay.tgtAddr)
			value := g
			if a.Target.isStructTarget() {
				fake := atk.GuessOf(lay.atkAddr + 128)
				atk.Write(fake, le8(g)) // fake vtable
				value = fake
			}
			atk.Write(slot, le8(value))
		})
	}

	r := m.Run("main")
	res.Trap = r.Trap
	res.Detail = r.Err.Error()

	switch {
	case r.Trap == vm.TrapHijacked && r.HijackTarget == goal,
		strings.Contains(r.Output, "PWNED"):
		res.Outcome = Success
	case r.Trap == vm.TrapCPIViolation, r.Trap == vm.TrapCPSViolation,
		r.Trap == vm.TrapPacViolation, r.Trap == vm.TrapSBViolation,
		r.Trap == vm.TrapCFIViolation, r.Trap == vm.TrapStackSmash,
		r.Trap == vm.TrapNXFault, r.Trap == vm.TrapFortify:
		res.Outcome = Prevented
	case a.Technique == Indirect && lay.tgtSafe:
		res.Outcome = Prevented // target unreachable in the safe region
	default:
		res.Outcome = Failed
	}
	return res, nil
}
