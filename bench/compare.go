package main

import (
	"fmt"
	"io"
)

// verdict judges one end-to-end metric of one workload: base and next are
// its values over the passes of the two sets.
//
//	unresolved  either set's own spread (interquartile distance ÷ median)
//	            exceeds the bound, so the sets cannot tell
//	worse       next's median is worse than base's by more than the bound
//	ok          otherwise
func verdict(base, next []float64, better string, bound float64) (v string, ratio, baseSpread, nextSpread float64) {
	mb, mn := median(base), median(next)
	baseSpread, nextSpread = spread(base), spread(next)
	if mb != 0 {
		ratio = mn / mb
	}
	worsening := ratio - 1 // lower is better
	if better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case baseSpread > bound || nextSpread > bound:
		v = "unresolved"
	case worsening > bound:
		v = "worse"
	default:
		v = "ok"
	}
	return v, ratio, baseSpread, nextSpread
}

// compareFiles prints every end-to-end metric per workload as a ratio with
// its base and a verdict against bench's bounds. ok is false when any
// verdict is worse or unresolved, or an operation or check failed.
func compareFiles(w io.Writer, basePath, nextPath string, bench *benchmarkFile) (ok bool, err error) {
	var base, next ledger
	if err := readJSON(basePath, &base); err != nil {
		return false, err
	}
	if err := readJSON(nextPath, &next); err != nil {
		return false, err
	}
	ok = true
	fmt.Fprintf(w, "base %s (commit %s, noisy=%v)\nnext %s (commit %s, noisy=%v)\n",
		basePath, base.Env.Commit, base.Env.Noisy, nextPath, next.Env.Commit, next.Env.Noisy)
	for _, wl := range bench.Workloads {
		bw, nw := base.Workloads[wl.Name], next.Workloads[wl.Name]
		if bw == nil || nw == nil {
			return false, fmt.Errorf("workload %s missing from a result file", wl.Name)
		}
		fmt.Fprintf(w, "%s\n  %-16s %14s %14s %8s %7s %7s %6s  %s\n", wl.Name,
			"metric", "base median", "next median", "ratio", "spr(b)", "spr(n)", "bound", "verdict")
		for _, side := range [][]*result{bw.Untraced, nw.Untraced} {
			for _, res := range side {
				if !res.Correct || res.Failed != 0 {
					ok = false
					fmt.Fprintf(w, "  FAILED: a pass reports %d failed of %d attempted\n", res.Failed, res.Attempted)
				}
				if !res.Valid {
					// One value of ten; the quartiles below say whether it matters.
					fmt.Fprintf(w, "  note: the open-loop generator ran late in the pass with seed %d\n", res.Seed)
				}
			}
		}
		for _, m := range bench.EndToEnd {
			values := func(rs []*result) (vs []float64) {
				for _, r := range rs {
					if mv, found := r.Metrics[m.Name]; found {
						vs = append(vs, mv.Value)
					}
				}
				return vs
			}
			bv, nv := values(bw.Untraced), values(nw.Untraced)
			if len(bv) == 0 || len(nv) == 0 {
				return false, fmt.Errorf("%s: metric %s missing from a result file", wl.Name, m.Name)
			}
			v, ratio, bs, ns := verdict(bv, nv, m.Better, m.Bound)
			if v != "ok" {
				ok = false
			}
			fmt.Fprintf(w, "  %-16s %14.4f %14.4f %8.4f %7.4f %7.4f %6.2f  %s\n",
				m.Name, median(bv), median(nv), ratio, bs, ns, m.Bound, v)
		}
	}
	return ok, nil
}
