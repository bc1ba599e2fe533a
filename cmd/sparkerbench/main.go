// Command sparkerbench regenerates every table and figure of the
// Sparker paper's evaluation section from the calibrated cluster
// simulation.
//
// Usage:
//
//	sparkerbench              # all tables, figures and ablations, paper order
//	sparkerbench -only fig16  # one report
//	sparkerbench -list        # list report ids
//	sparkerbench -verify      # the paper-claim checklist, PASS/FAIL
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sparker/internal/bench"
)

func main() {
	only := flag.String("only", "", "render a single report (e.g. fig16, table2)")
	list := flag.Bool("list", false, "list available report ids")
	format := flag.String("format", "text", "output format: text or md")
	verify := flag.Bool("verify", false, "run the reproduction checklist: every headline paper claim, PASS/FAIL")
	flag.Parse()

	render := func(r *bench.Report) string {
		if *format == "md" {
			return r.RenderMarkdown()
		}
		return r.Render()
	}

	if *verify {
		claims, err := bench.VerifyClaims()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(bench.RenderClaims(claims))
		for _, c := range claims {
			if !c.Pass {
				os.Exit(1)
			}
		}
		return
	}
	if *list {
		fmt.Println(strings.Join(bench.IDs(), " "))
		return
	}
	if *only != "" {
		r, err := bench.ByID(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(render(r))
		return
	}
	reports, err := bench.All()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range reports {
		fmt.Println(render(r))
	}
}
