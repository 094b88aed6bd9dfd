package deadapi

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// allow lists the exported identifiers under internal/ that stay although
// no non-test code calls them, each with a one-line reason.
var allow = map[string]string{
	"internal/faultinject.(*Injector).Fired": "core's fault tests assert how often each rule fired",
	"internal/timing.FromIntCycles":          "audit, cpu, memory and timing tests build exact whole-cycle ticks with it",
	"internal/workload.RefSource.Counts":     "source tests compare emission counters through the interface",
}

// TestNoDeadAPI fails on every exported function or method under
// internal/ that neither this module's nor bench/'s non-test code
// reaches, unless allow lists it, and on every stale allow entry.
func TestNoDeadAPI(t *testing.T) {
	dead, err := scan("../..", "../../bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range check(dead, allow) {
		t.Error(msg)
	}
}

// check returns one message for each scanned name allow does not cover
// and for each allow entry that is stale or has no one-line reason.
func check(dead []string, allow map[string]string) []string {
	var msgs []string
	found := map[string]bool{}
	for _, name := range dead {
		found[name] = true
		if _, ok := allow[name]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s: no non-test code calls it; delete it, move it into a _test.go file, or allow-list it with a reason", name))
		}
	}
	for name, reason := range allow {
		if !found[name] {
			msgs = append(msgs, fmt.Sprintf("%s: stale allow entry: it has a non-test caller now, or no longer exists", name))
		}
		if strings.TrimSpace(reason) == "" || strings.Contains(reason, "\n") {
			msgs = append(msgs, fmt.Sprintf("%s: allow entry needs a one-line reason", name))
		}
	}
	sort.Strings(msgs)
	return msgs
}

// TestScanFixture pins what the scan reports on a small module: the dead
// function and the test-only one, but no method reached through a named
// interface, an interface-literal assertion, or fmt and errors.
func TestScanFixture(t *testing.T) {
	dead, err := scan("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.Dead", "internal/lib.TestOnly"}
	if !reflect.DeepEqual(dead, want) {
		t.Fatalf("scan = %q, want %q", dead, want)
	}

	if msgs := check(dead, map[string]string{}); len(msgs) != 2 ||
		!strings.HasPrefix(msgs[0], "internal/lib.Dead: ") || !strings.HasPrefix(msgs[1], "internal/lib.TestOnly: ") {
		t.Errorf("unlisted entries: %q", msgs)
	}
	msgs := check(dead, map[string]string{
		"internal/lib.Dead":       "kept on purpose",
		"internal/lib.TestOnly":   "kept on purpose",
		"internal/lib.Named.Ping": "has a caller through Pinger",
		"internal/lib.Gone":       "no longer exists",
	})
	wantMsgs := []string{
		"internal/lib.Gone: stale allow entry: it has a non-test caller now, or no longer exists",
		"internal/lib.Named.Ping: stale allow entry: it has a non-test caller now, or no longer exists",
	}
	if !reflect.DeepEqual(msgs, wantMsgs) {
		t.Errorf("stale entries: %q, want %q", msgs, wantMsgs)
	}
	if msgs := check(dead, map[string]string{"internal/lib.Dead": "", "internal/lib.TestOnly": "two\nlines"}); len(msgs) != 2 ||
		!strings.HasSuffix(msgs[0], "needs a one-line reason") || !strings.HasSuffix(msgs[1], "needs a one-line reason") {
		t.Errorf("missing reasons: %q", msgs)
	}
}
