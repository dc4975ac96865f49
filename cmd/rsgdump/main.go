// Command rsgdump analyzes a mini-C file (or built-in kernel) and dumps
// the RSRSG of a chosen program point as text or Graphviz dot.
//
// Usage:
//
//	rsgdump [-level N] [-stmt N | -line N | -exit] [-dot] <file.c | kernel>
//
// With -line, every statement lowered from that source line is dumped
// (a C statement can expand to several IR statements).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/cminic"
	"repro/internal/ir"
	"repro/internal/rsg"
)

func main() {
	level := flag.Int("level", 1, "analysis level 1..3")
	stmtID := flag.Int("stmt", -1, "dump after this IR statement id")
	line := flag.Int("line", -1, "dump after every statement of this source line")
	exit := flag.Bool("exit", false, "dump the function exit state")
	dot := flag.Bool("dot", false, "emit Graphviz dot instead of text")
	listing := flag.Bool("list", false, "print the IR listing and quit")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rsgdump [flags] <file.c | kernel-name>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	prog, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsgdump:", err)
		os.Exit(1)
	}
	if *listing {
		fmt.Print(prog)
		return
	}
	if flagSet("stmt") && (*stmtID < 0 || *stmtID >= len(prog.Stmts)) {
		fmt.Fprintf(os.Stderr, "rsgdump: -stmt %d out of range [0, %d)\n", *stmtID, len(prog.Stmts))
		os.Exit(2)
	}

	res, err := analysis.Run(prog, analysis.Options{Level: rsg.Level(*level)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsgdump:", err)
		os.Exit(1)
	}

	var targets []int
	switch {
	case *exit || (*stmtID < 0 && *line < 0):
		targets = []int{prog.Exit}
	case *stmtID >= 0:
		targets = []int{*stmtID}
	default:
		for _, s := range prog.Stmts {
			if s.Line == *line {
				targets = append(targets, s.ID)
			}
		}
		if len(targets) == 0 {
			fmt.Fprintf(os.Stderr, "rsgdump: no statement at line %d\n", *line)
			os.Exit(1)
		}
	}

	for _, id := range targets {
		set := res.Out[id]
		if set == nil {
			fmt.Printf("-- statement %d (%s): unreachable\n", id, prog.Stmt(id))
			continue
		}
		fmt.Printf("-- statement %d (%s): %d RSGs\n", id, prog.Stmt(id), set.Len())
		if *dot {
			for i, g := range set.Graphs() {
				fmt.Print(rsg.DOT(g, fmt.Sprintf("s%d_%d", id, i)))
			}
		} else {
			fmt.Println(set)
		}
	}
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func load(arg string) (*ir.Program, error) {
	if k := benchprog.ByName(arg); k != nil {
		return k.Compile()
	}
	src, err := os.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	file, err := cminic.Parse(string(src))
	if err != nil {
		return nil, err
	}
	return ir.LowerMain(file)
}
