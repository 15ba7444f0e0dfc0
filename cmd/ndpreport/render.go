package main

import (
	"fmt"
	"strings"
)

// renderNotes formats an artifact's note lines as a markdown list,
// marking paper-shape check results, and returns how many checks passed
// and failed.
func renderNotes(notes []string) (body string, ok, mismatch int) {
	var out strings.Builder
	for _, n := range notes {
		marker := "-"
		switch {
		case strings.HasPrefix(n, "OK:"):
			marker = "- ✅"
			ok++
		case strings.HasPrefix(n, "MISMATCH"):
			marker = "- ❌"
			mismatch++
		}
		fmt.Fprintf(&out, "%s %s\n", marker, n)
	}
	return out.String(), ok, mismatch
}
