// Command cwc-vet prints the findings of the project-invariant
// static-analysis suite (internal/lint) as file:line:col lines, for
// humans: the gate is the same analysis run as a test,
// `go test ./internal/lint/`. It takes no flags and no arguments; run it
// from the module root. See docs/static-analysis.md for the
// analyzers and the suppression syntax.
//
// Exit status is 0 when clean, 1 when there are findings, 2 when the
// module cannot be loaded.
package main

import (
	"fmt"
	"io"
	"os"

	"cwc/internal/lint"
)

func main() {
	os.Exit(run(".", os.Stdout, os.Stderr))
}

// run analyzes the module rooted at root: findings go to out, one a
// line, and the reason for a non-zero status to errw.
func run(root string, out, errw io.Writer) int {
	prog, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(errw, "cwc-vet: %v\n", err)
		return 2
	}
	diags := prog.Run(lint.Analyzers())
	for _, d := range diags {
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(errw, "cwc-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
