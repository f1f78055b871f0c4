package gcl

import (
	"fmt"
	"strings"
)

// BranchInfo is the introspectable shape of one branch: everything except
// the guard and effect expressions themselves.
type BranchInfo struct {
	// Next is the target label.
	Next string
	// Tag is the statistics tag, if any.
	Tag string
	// Guarded reports whether the branch has a guard (an await / test).
	Guarded bool
	// Assigns is the number of assignments in the effect.
	Assigns int
}

// BranchesAt returns the introspection records for a label's branches.
func (p *Prog) BranchesAt(label string) []BranchInfo {
	idx := p.LabelIndex(label)
	out := make([]BranchInfo, 0, len(p.branches[idx]))
	for _, b := range p.branches[idx] {
		out = append(out, BranchInfo{
			Next:    b.Next,
			Tag:     b.Tag,
			Guarded: b.Guard.defined(),
			Assigns: len(b.Eff),
		})
	}
	return out
}

// Listing renders the program's control-flow skeleton: every label with its
// branches (guards shown as `when …` markers, effects as assignment
// counts). The listing shows structure, not the expressions' source text —
// enough to see the shape of an algorithm (and to diff variants) from
// cmd/bakerymc -listing.
func (p *Prog) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s: N=%d, M=%d\n", p.Name, p.N, p.M)
	for _, d := range p.shared {
		owned := ""
		if p.owned[d.Name] {
			owned = " (owned)"
		}
		if d.Size == 1 {
			fmt.Fprintf(&b, "  shared %s = %d%s\n", d.Name, d.Init, owned)
		} else {
			fmt.Fprintf(&b, "  shared %s[%d] = %d%s\n", d.Name, d.Size, d.Init, owned)
		}
	}
	for _, d := range p.locals {
		fmt.Fprintf(&b, "  local  %s = %d\n", d.Name, d.Init)
	}
	for li, label := range p.labels {
		fmt.Fprintf(&b, "%s:\n", label)
		for _, br := range p.branches[li] {
			guard := "always"
			if br.Guard.defined() {
				guard = "when <guard>"
			}
			tag := ""
			if br.Tag != "" {
				tag = fmt.Sprintf("  [%s]", br.Tag)
			}
			fmt.Fprintf(&b, "  %-14s %2d assign(s) -> %s%s\n", guard, len(br.Eff), br.Next, tag)
		}
	}
	return b.String()
}
