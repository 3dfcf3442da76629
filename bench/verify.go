package main

import (
	"fmt"

	"dirsvc/internal/capability"
)

// verify is the end-of-run correctness check: through a fresh client
// bound to each replica in turn, every directory must list exactly its
// populated rows — replicas agree, no acknowledged pair left a name
// behind, and a restarted replica has caught up. It returns one line per
// mismatch.
func (tb *testbed) verify() []string {
	var bad []string
	for r := 1; r <= replicas; r++ {
		cl, _, err := bind(tb.cluster, tb.pins, r)
		if err != nil {
			bad = append(bad, fmt.Sprintf("replica %d: %v", r, err))
			continue
		}
		for d, dirCap := range tb.ns.dirs {
			rows, err := cl.List(bg, dirCap, 0)
			if err != nil {
				bad = append(bad, fmt.Sprintf("replica %d: list dir %d: %v", r, d, err))
				continue
			}
			got := make(map[string]capability.Capability, len(rows))
			for _, row := range rows {
				got[row.Name] = row.Cap
			}
			if len(got) != len(tb.ns.names) {
				bad = append(bad, fmt.Sprintf("replica %d: dir %d lists %d rows, want %d", r, d, len(got), len(tb.ns.names)))
				continue
			}
			for n, name := range tb.ns.names {
				if got[name] != tb.ns.targets[d][n] {
					bad = append(bad, fmt.Sprintf("replica %d: dir %d row %s holds %v, want %v", r, d, name, got[name], tb.ns.targets[d][n]))
				}
			}
		}
	}
	return bad
}
