// Command polydbg is an interactive cycle-level debugger for the PolyPath
// simulator: step the machine cycle by cycle and inspect the instruction
// window, the CTX path table, architectural registers and memory.
//
//	polydbg -bench go                 # debug a generated benchmark
//	polydbg -asm prog.s -model see    # debug an assembly file
//
// Commands:
//
//	step [n]        advance n cycles (default 1)
//	run  [n]        run until halt or n more committed instructions
//	window [n]      show the first n instruction window entries
//	paths           show the CTX path table
//	regs            show committed architectural registers
//	mem a [n]       show n memory words starting at a
//	stats           show the statistics summary
//	disasm [a [n]]  disassemble n instructions from address a
//	help            this text
//	quit            exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "go", "benchmark name")
	asmFile := flag.String("asm", "", "debug an assembly file instead of a benchmark")
	model := flag.String("model", "see", "model: "+strings.Join(core.ModelNames(), ","))
	insts := flag.Uint64("insts", 0, "dynamic instruction target (0 = default)")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		fmt.Println("polydbg", obs.Version())
		return
	}

	var prog *isa.Program
	if *asmFile != "" {
		src, err := os.ReadFile(*asmFile)
		fail(err)
		p, err := isa.Assemble(string(src))
		fail(err)
		prog = p
	} else {
		bm, err := workload.ByName(*bench, *insts)
		fail(err)
		p, err := workload.Generate(bm.Spec)
		fail(err)
		prog = p
	}

	cfg, err := core.ModelConfig(*model)
	fail(err)

	m, err := pipeline.New(prog, cfg)
	fail(err)
	fmt.Printf("polydbg: %q on %s (%d static instructions). Type 'help'.\n",
		prog.Name, *model, len(prog.Code))
	repl(m, os.Stdin, os.Stdout)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "polydbg:", err)
		os.Exit(1)
	}
}

// repl drives the debugger loop; split out for testing.
func repl(m *pipeline.Machine, in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprintf(out, "[cyc %d, committed %d]> ", m.Cycle(), m.Stats.Committed)
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "q", "exit":
			return
		case "help", "h", "?":
			fmt.Fprint(out, helpText)
		case "step", "s":
			n := argInt(args, 0, 1)
			for i := 0; i < n && !m.Halted(); i++ {
				m.Step()
			}
			if m.Halted() {
				fmt.Fprintln(out, "machine halted")
			}
		case "run", "r":
			target := m.Stats.Committed + uint64(argInt(args, 0, 1<<31))
			for !m.Halted() && m.Stats.Committed < target {
				m.Step()
			}
			if m.Halted() {
				fmt.Fprintln(out, "machine halted")
			}
		case "window", "w":
			n := argInt(args, 0, 16)
			views := m.WindowView(n)
			fmt.Fprintf(out, "window: %d entries in flight\n", m.WindowLen())
			for _, v := range views {
				mark := " "
				if v.Diverged {
					mark = "D"
				} else if v.Branch {
					mark = "B"
				}
				fmt.Fprintf(out, "  %6d %s pc=%-5d %-9s %-8s %s\n",
					v.Seq, mark, v.PC, v.State, v.Tag, v.Disasm)
			}
		case "paths", "p":
			for _, p := range m.PathsView() {
				status := "fetching"
				switch {
				case p.Halted:
					status = "halted"
				case p.Zombie:
					status = "zombie"
				case !p.Fetching:
					status = "stalled"
				}
				fmt.Fprintf(out, "  path %-2d %-8s %-8s pc=%-5d pending=%d onTrace=%v\n",
					p.ID, p.Tag, status, p.FetchPC, p.Pending, p.OnTrace)
			}
		case "regs":
			regs := m.ArchRegs()
			for r := 0; r < isa.NumRegs; r += 4 {
				fmt.Fprintf(out, "  r%-2d=%-12d r%-2d=%-12d r%-2d=%-12d r%-2d=%-12d\n",
					r, regs[r], r+1, regs[r+1], r+2, regs[r+2], r+3, regs[r+3])
			}
		case "mem":
			if len(args) < 1 {
				fmt.Fprintln(out, "usage: mem addr [n]")
				continue
			}
			a := argInt(args, 0, 0)
			n := argInt(args, 1, 8)
			mem := m.Memory()
			for i := 0; i < n && a+i < mem.Words(); i++ {
				fmt.Fprintf(out, "  [%d] = %d\n", a+i, mem.Load(a+i))
			}
		case "stats":
			fmt.Fprint(out, m.Stats.Summary())
		case "disasm", "d":
			a := argInt(args, 0, 0)
			n := argInt(args, 1, 12)
			code := m.Program().Code
			for i := a; i < a+n && i < len(code); i++ {
				fmt.Fprintf(out, "  %5d: %s\n", i, isa.Disasm(code[i]))
			}
		default:
			fmt.Fprintf(out, "unknown command %q (try 'help')\n", cmd)
		}
	}
}

func argInt(args []string, idx, def int) int {
	if idx >= len(args) {
		return def
	}
	v, err := strconv.Atoi(args[idx])
	if err != nil {
		return def
	}
	return v
}

const helpText = `  step [n]        advance n cycles (default 1)
  run  [n]        run until halt or n more committed instructions
  window [n]      show the first n instruction window entries
  paths           show the CTX path table
  regs            show committed architectural registers
  mem a [n]       show n memory words starting at a
  stats           statistics summary
  disasm [a [n]]  disassemble n instructions from address a
  quit            exit
`
