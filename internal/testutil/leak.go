// Package testutil holds shared helpers for the repo's tests: the
// goroutine-leak guard, and DecodeESTs, which turns fuzz inputs into EST
// sets for the suffix-tree and pair-generation oracles.
//
// The leak guard exists because serving and transport tests spin up real
// goroutines (HTTP servers, admission queues, sim ranks), and a test that
// passes while leaving one behind has really failed — the leak either holds
// resources across the rest of the package's tests or hides a missing
// shutdown path. The guard is stdlib-only: a goroutine-id snapshot plus a
// stack diff over runtime.Stack.
package testutil

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// CheckGoroutines arms the leak guard for one test: it snapshots the live
// goroutines now and, when the test finishes, fails it if goroutines
// created during the test are still running after a short grace window
// (long enough for Close/Shutdown paths to drain on a loaded CI machine).
func CheckGoroutines(t testing.TB) {
	t.Helper()
	snap := Take()
	t.Cleanup(func() {
		if leaked := snap.Leaked(5 * time.Second); len(leaked) > 0 {
			t.Errorf("goroutine leak: %d goroutine(s) outlived the test:\n\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
		}
	})
}

// Snapshot is the set of goroutines alive at capture time.
type Snapshot struct {
	ids map[string]bool
}

// Take captures the id of every currently-live goroutine.
func Take() Snapshot {
	ids := map[string]bool{}
	for id := range stacks() {
		ids[id] = true
	}
	return Snapshot{ids: ids}
}

// Leaked waits up to grace for every goroutine started after the snapshot
// to exit, then returns the stacks of the ones that remain. Only goroutines
// attributable to this module (a "pace/" frame or creator) are reported, so
// runtime and testing service goroutines never count as leaks.
func (s Snapshot) Leaked(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		leaked := s.diff()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s Snapshot) diff() []string {
	var out []string
	for id, stack := range stacks() {
		if s.ids[id] || !strings.Contains(stack, "pace/") {
			continue
		}
		out = append(out, stack)
	}
	sort.Strings(out)
	return out
}

// stacks returns every live goroutine's full dump keyed by goroutine id,
// parsed from the "goroutine <id> [<state>]:" headers of runtime.Stack.
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		fields := strings.Fields(header)
		if len(fields) >= 2 && fields[0] == "goroutine" {
			out[fields[1]] = g
		}
	}
	return out
}
