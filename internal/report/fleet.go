// Fleet progress rendering: the per-worker accounting table and the
// sweep totals line a coordinator prints after a distributed run.
package report

import (
	"fmt"
	"io"

	"cmpsim/internal/fleet"
)

// Fleet prints the per-worker table followed by the totals line.
func Fleet(w io.Writer, t fleet.Stats) {
	fmt.Fprintln(w, "Fleet: per-worker progress")
	fmt.Fprintf(w, "  %-12s %7s %7s %8s %5s %9s %5s\n",
		"worker", "leases", "results", "failures", "dups", "malformed", "lost")
	for _, r := range t.Workers {
		lost := ""
		if r.Lost {
			lost = "LOST"
		}
		fmt.Fprintf(w, "  %-12s %7d %7d %8d %5d %9d %5s\n",
			r.Worker, r.Leases, r.Results, r.Failures, r.Duplicates, r.Malformed, lost)
	}
	recovered := ""
	if t.Recovered > 0 {
		recovered = fmt.Sprintf(", %d recovered from journal", t.Recovered)
	}
	fmt.Fprintf(w, "  totals: %d points (%d from store, %d completed, %d failed), %d requeues (%d expired), %d workers lost, %d duplicate results, %d malformed%s\n",
		t.Points, t.FromStore, t.Completed, t.Failed, t.Requeues, t.Expired, t.Lost, t.Duplicates, t.Malformed, recovered)
}
