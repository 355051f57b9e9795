// Command covercheck enforces per-package coverage floors over a Go
// coverprofile. CI runs it after `go test -coverprofile`; it exits
// non-zero when a floored package drops below its minimum, so coverage
// of the isolation-critical packages (the monitor trampoline, the
// scratchpad domain model, the multi-tenant scheduler) can only
// ratchet up.
//
// Usage:
//
//	go test -coverprofile=coverage.out -covermode=atomic ./...
//	go run ./cmd/covercheck -profile coverage.out
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// floors maps package import paths to their minimum statement coverage
// (percent). The values pin today's levels with headroom, not
// aspirations: dropping below one means tests were lost or a large
// untested surface was added to a trust-critical package.
var floors = map[string]float64{
	"repro/internal/graph":    80,
	"repro/internal/sched":    85,
	"repro/internal/serve":    80,
	"repro/internal/monitor":  80,
	"repro/internal/spad":     90,
	"repro/internal/workload": 80,
}

// pkgCov accumulates statement counts for one package.
type pkgCov struct {
	total   int
	covered int
}

func (p pkgCov) pct() float64 {
	if p.total == 0 {
		return 0
	}
	return 100 * float64(p.covered) / float64(p.total)
}

// parseProfile reads a coverprofile and returns per-package statement
// coverage. Profile lines look like:
//
//	repro/internal/sched/sched.go:123.45,130.2 5 1
func parseProfile(fname string) (map[string]pkgCov, error) {
	f, err := os.Open(fname)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]pkgCov{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") || line == "" {
			continue
		}
		colon := strings.LastIndex(line, ".go:")
		if colon < 0 {
			return nil, fmt.Errorf("malformed profile line: %q", line)
		}
		pkg := path.Dir(line[:colon+3])
		fields := strings.Fields(line[colon+4:])
		if len(fields) != 3 {
			return nil, fmt.Errorf("malformed profile line: %q", line)
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("malformed statement count in %q", line)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("malformed hit count in %q", line)
		}
		p := out[pkg]
		p.total += stmts
		if count > 0 {
			p.covered += stmts
		}
		out[pkg] = p
	}
	return out, sc.Err()
}

func main() {
	profile := flag.String("profile", "coverage.out", "coverprofile to check")
	flag.Parse()

	cov, err := parseProfile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "covercheck:", err)
		os.Exit(1)
	}

	pkgs := make([]string, 0, len(floors))
	for pkg := range floors {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)

	failed := false
	for _, pkg := range pkgs {
		p, ok := cov[pkg]
		if !ok {
			fmt.Printf("covercheck: FAIL %-24s absent from profile (floor %.0f%%)\n", pkg, floors[pkg])
			failed = true
			continue
		}
		pct := p.pct()
		status := "ok  "
		if pct < floors[pkg] {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("covercheck: %s %-24s %6.1f%% of %d statements (floor %.0f%%)\n",
			status, pkg, pct, p.total, floors[pkg])
	}
	if failed {
		os.Exit(1)
	}
}
