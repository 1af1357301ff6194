package sched

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/canon"
)

// RenderCandidate appends the canonical rendering of one explored candidate:
// every pointer expanded so the string is a pure function of the candidate's
// values. It is the byte-identity contract of the repository — the golden
// search test pins its SHA-256 against the pre-refactor implementation, and
// the evaluation service uses it to prove a daemon-served job equals the
// same search run in-process, byte for byte. The text is fmt's: the
// candidate line's fields under %v, the report and the recompute plan under
// %+v, the placement regions and the allocations under %v.
func RenderCandidate(b *strings.Builder, c Candidate) {
	var rs canon.Reporter
	b.Write(appendCandidate(make([]byte, 0, 4096), &rs, &c))
}

// Canonical returns the canonical rendering of the full exploration record.
func (r *Result) Canonical() string { return canon.Render(r.AppendCanonical) }

// candidateTextBytes is about the text of one candidate: 4.2 KB on average
// for a Llama2-30B search on Config3. AppendCanonical reserves it per
// candidate, so a buffer that starts empty grows once or twice rather than
// through every step of append's growth.
const candidateTextBytes = 4 << 10

// AppendCanonical appends Canonical's bytes to b.
func (r *Result) AppendCanonical(b []byte) []byte {
	b = slices.Grow(b, candidateTextBytes*len(r.Explored))
	var rs canon.Reporter
	for i := range r.Explored {
		b = appendCandidate(b, &rs, &r.Explored[i])
	}
	return b
}

// appendCandidate appends RenderCandidate's bytes for c to b.
func appendCandidate(b []byte, rs *canon.Reporter, c *Candidate) []byte {
	b = append(b, "tp="...)
	b = canon.Int(b, c.TP)
	b = append(b, " pp="...)
	b = canon.Int(b, c.PP)
	b = append(b, " coll="...)
	b = append(b, c.Collective.String()...)
	b = append(b, " pruned="...)
	b = strconv.AppendBool(b, c.Pruned)
	b = append(b, " err="...)
	b = canon.Error(b, c.Err)
	b = append(b, "\nreport="...)
	b = rs.Append(b, &c.Report)
	b = append(b, "\npipelineWafers="...)
	b = canon.Int(b, c.Strategy.PipelineWafers)
	b = append(b, '\n')
	if c.Strategy.Placement != nil {
		b = append(b, "placement="...)
		b = canon.Regions(b, c.Strategy.Placement.Regions)
		b = append(b, '\n')
	}
	if c.Strategy.Recompute != nil {
		b = append(b, "recompute="...)
		b = canon.Plan(b, c.Strategy.Recompute)
		b = append(b, '\n')
	}
	b = append(b, "allocations="...)
	b = canon.Allocations(b, c.Strategy.Allocations)
	return append(b, '\n')
}
