package clusterview

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"alohadb/internal/obs/journal"
)

// EpochPath is one committed epoch's cluster-wide critical path: the
// server and close-out stage that gated the commit, from the journal
// records merged across servers (and the EM's mirror when present).
type EpochPath struct {
	Epoch uint64 `json:"epoch"`
	// Servers is how many servers contributed a complete record; fewer
	// than the cluster size means a ragged scrape and the attribution
	// covers only the servers seen.
	Servers int `json:"servers"`
	// TotalNS spans the switch decision (EM record, else the earliest
	// revoke arrival) to the last visibility publication.
	TotalNS int64 `json:"total_ns"`
	// GatingServer/GatingStage name the critical path; GatingNS is that
	// stage's duration on that server.
	GatingServer int    `json:"gating_server"`
	GatingStage  string `json:"gating_stage"`
	GatingNS     int64  `json:"gating_ns"`
	// StallActive/MigrationSeals flag interference on the gating server.
	StallActive    bool `json:"stall_active,omitempty"`
	MigrationSeals int  `json:"migration_seals,omitempty"`
}

// MergeEpochs joins journal documents from any number of servers (plus
// EM mirrors, carried on any doc) by epoch number and attributes each
// epoch's critical path. It is defensive about real scrape conditions:
//
//   - Ragged snapshots (servers at different committed epochs) attribute
//     among the complete records present — never fabricating a path for
//     an epoch no server finished.
//   - Duplicate records (the double scrape, or the same doc twice) dedup
//     by (epoch, server), keeping the more-finished record.
//   - Incomplete records (an epoch mid-close-out when scraped) are
//     excluded from attribution entirely.
func MergeEpochs(docs ...journal.Doc) []EpochPath {
	recs, ems := dedupe(docs...)
	emBy := make(map[uint64]journal.EMRecord, len(ems))
	for _, e := range ems {
		emBy[e.Epoch] = e
	}
	byEpoch := make(map[uint64][]journal.Record)
	for _, r := range recs {
		if r.Complete() {
			byEpoch[r.Epoch] = append(byEpoch[r.Epoch], r)
		}
	}

	paths := make([]EpochPath, 0, len(byEpoch))
	for e, group := range byEpoch {
		if p, ok := attribute(e, group, emBy[e]); ok {
			paths = append(paths, p)
		}
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].Epoch < paths[j].Epoch })
	return paths
}

// dedupe joins the docs' records, keeping one per (epoch, server) — the
// more finished — and one EM record per epoch — the later commit.
func dedupe(docs ...journal.Doc) (recs []journal.Record, ems []journal.EMRecord) {
	type key struct {
		epoch  uint64
		server int
	}
	recAt := make(map[key]int)
	emAt := make(map[uint64]int)
	for _, d := range docs {
		for _, r := range d.Records {
			if i, ok := recAt[key{r.Epoch, r.Server}]; !ok {
				recAt[key{r.Epoch, r.Server}] = len(recs)
				recs = append(recs, r)
			} else if moreFinished(r, recs[i]) {
				recs[i] = r
			}
		}
		for _, e := range d.EM {
			if i, ok := emAt[e.Epoch]; !ok {
				emAt[e.Epoch] = len(ems)
				ems = append(ems, e)
			} else if e.CommitNS > ems[i].CommitNS {
				ems[i] = e
			}
		}
	}
	return recs, ems
}

// carry unions the previous refresh's journal into a fresh scrape's, so
// epochs the ring has since overwritten stay attributable. The previous
// doc is itself such a union, so the result is deduplicated and cut to the
// maxEpochPaths epochs a snapshot can show — those up to the newest one
// with a complete record (the newest EM record for an EM-only doc) — which
// keeps what a watch loop carries bounded however long it runs.
func carry(prev, cur *journal.Doc) *journal.Doc {
	out := *cur
	out.Records, out.EM = dedupe(*prev, *cur)
	var newest, newestEM uint64
	for _, r := range out.Records {
		if r.Complete() {
			newest = max(newest, r.Epoch)
		}
	}
	for _, e := range out.EM {
		newestEM = max(newestEM, e.Epoch)
	}
	if newest == 0 {
		newest = newestEM
	}
	old := func(e uint64) bool { return e+maxEpochPaths <= newest }
	out.Records = slices.DeleteFunc(out.Records, func(r journal.Record) bool { return old(r.Epoch) })
	out.EM = slices.DeleteFunc(out.EM, func(e journal.EMRecord) bool { return old(e.Epoch) })
	return &out
}

// moreFinished prefers the record further through the close-out, so a
// double scrape keeps the one with visibility (then commit) published.
func moreFinished(a, b journal.Record) bool {
	if a.VisibleNS != b.VisibleNS {
		return a.VisibleNS > b.VisibleNS
	}
	return a.CommittedNS > b.CommittedNS
}

// attribute computes one epoch's critical path from its complete records
// and (optionally) the EM mirror. ok is false when no anchor for the
// switch decision exists — attribution is then impossible, not guessable.
func attribute(epoch uint64, group []journal.Record, em journal.EMRecord) (EpochPath, bool) {
	// D anchors the path: the EM's switch decision when mirrored, else the
	// earliest revoke arrival, else the earliest install.
	decide := em.DecideNS
	if decide == 0 {
		for _, r := range group {
			if r.AckWaitStartNS > 0 && (decide == 0 || r.AckWaitStartNS < decide) {
				decide = r.AckWaitStartNS
			}
		}
	}
	if decide == 0 {
		for _, r := range group {
			if r.FirstInstallNS > 0 && (decide == 0 || r.FirstInstallNS < decide) {
				decide = r.FirstInstallNS
			}
		}
	}
	if decide == 0 {
		return EpochPath{}, false
	}

	// The ack straggler: the last revoke-ack the EM waited on. The EM's
	// arrival stamps see the wire (a delayed ack link shows up here); the
	// fallback to the server-side ack-send stamp does not, but still ranks
	// the slowest drain.
	straggler, maxAck := -1, int64(0)
	for _, r := range group {
		ack := r.AckWaitEndNS
		if len(em.AckNS) > r.Server && r.Server >= 0 && em.AckNS[r.Server] > 0 {
			ack = em.AckNS[r.Server]
		}
		if ack > maxAck {
			straggler, maxAck = r.Server, ack
		}
	}

	// The visibility straggler: the server whose publication closed the
	// epoch. Its post-barrier stages (broadcast, seal, fsync) are the
	// other critical-path candidates.
	var gv journal.Record
	for _, r := range group {
		if gv.VisibleNS == 0 || r.VisibleNS > gv.VisibleNS {
			gv = r
		}
	}

	type cand struct {
		server int
		stage  string
		ns     int64
	}
	var cands []cand
	if straggler >= 0 && maxAck > decide {
		// Everything from the decision to the last ack is the straggler's:
		// if its installs were still landing after the revoke arrived, the
		// install tail is what dragged the drain; otherwise it's the
		// ack-wait itself.
		stage := journal.StageNames[journal.StageAckWait]
		for _, r := range group {
			if r.Server == straggler && r.LastInstallNS > r.AckWaitStartNS && r.AckWaitStartNS > 0 {
				stage = journal.StageNames[journal.StageInstall]
			}
		}
		cands = append(cands, cand{straggler, stage, maxAck - decide})
	}
	if maxAck > 0 && gv.CommittedNS > maxAck {
		cands = append(cands, cand{gv.Server, journal.StageNames[journal.StageBroadcast], gv.CommittedNS - maxAck})
	}
	if gv.SealNS > gv.CommittedNS {
		cands = append(cands, cand{gv.Server, journal.StageNames[journal.StageSeal], gv.SealNS - gv.CommittedNS})
	}
	if gv.FsyncNS > 0 {
		cands = append(cands, cand{gv.Server, journal.StageNames[journal.StageFsync], gv.FsyncNS})
	}
	if len(cands) == 0 {
		return EpochPath{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.ns > best.ns {
			best = c
		}
	}

	p := EpochPath{
		Epoch:        epoch,
		Servers:      len(group),
		GatingServer: best.server,
		GatingStage:  best.stage,
		GatingNS:     best.ns,
	}
	if gv.VisibleNS > decide {
		p.TotalNS = gv.VisibleNS - decide
	}
	for _, r := range group {
		if r.Server == best.server {
			p.StallActive = r.StallActive
			p.MigrationSeals = r.MigrationSeals
		}
	}
	return p, true
}

// RenderEpochs writes the slowest n epochs by total close-out time, one
// row each with the critical-path attribution — the aloha-top drill-down
// and the `aloha-bench run obs-view` report.
func RenderEpochs(w io.Writer, paths []EpochPath, n int) {
	if len(paths) == 0 {
		fmt.Fprintln(w, "no attributed epochs (journal empty or no complete records)")
		return
	}
	slowest := append([]EpochPath(nil), paths...)
	sort.Slice(slowest, func(i, j int) bool { return slowest[i].TotalNS > slowest[j].TotalNS })
	if n > 0 && len(slowest) > n {
		slowest = slowest[:n]
	}
	fmt.Fprintf(w, "%-8s %12s %8s %-10s %12s %8s  %s\n",
		"epoch", "total", "server", "stage", "gating", "servers", "notes")
	for _, p := range slowest {
		var notes []string
		if p.StallActive {
			notes = append(notes, "stall")
		}
		if p.MigrationSeals > 0 {
			notes = append(notes, fmt.Sprintf("%d migration seals", p.MigrationSeals))
		}
		note := ""
		for i, s := range notes {
			if i > 0 {
				note += "; "
			}
			note += s
		}
		fmt.Fprintf(w, "%-8d %12s %8d %-10s %12s %8d  %s\n",
			p.Epoch, fmtNS(p.TotalNS), p.GatingServer, p.GatingStage, fmtNS(p.GatingNS), p.Servers, note)
	}
}

func fmtNS(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

// GatingSummary tallies how often each server gated a commit and its most
// common gating stage — the aloha-top per-server "gating" column.
func GatingSummary(paths []EpochPath) map[int]GatingCount {
	out := make(map[int]GatingCount)
	stageBy := make(map[int]map[string]int)
	for _, p := range paths {
		g := out[p.GatingServer]
		g.Epochs++
		out[p.GatingServer] = g
		if stageBy[p.GatingServer] == nil {
			stageBy[p.GatingServer] = make(map[string]int)
		}
		stageBy[p.GatingServer][p.GatingStage]++
	}
	for server, stages := range stageBy {
		best, bestN := "", 0
		for stage, n := range stages {
			if n > bestN || (n == bestN && stage < best) {
				best, bestN = stage, n
			}
		}
		g := out[server]
		g.Stage = best
		out[server] = g
	}
	return out
}

// GatingCount is one server's share of the merged critical paths.
type GatingCount struct {
	Epochs int    `json:"epochs"`
	Stage  string `json:"stage"`
}
