package main

// Correctness oracles. Each compares an output of the program under test
// with something computed without that code path: the corpus generator's
// own model, the tree-based reference evaluator, the textbook closure
// (rel.Implies), the exponential reference cover, or the paper's published
// cover.

import (
	"fmt"
	"sort"
	"strings"

	"xkprop/internal/rel"
	"xkprop/internal/shred"
)

// checkCounts compares per-table tuple counts with the generator's model.
func checkCounts(got []shred.TableCount, want map[string]int64) error {
	seen := map[string]bool{}
	for _, tc := range got {
		seen[tc.Table] = true
		if tc.Tuples != want[tc.Table] {
			return fmt.Errorf("table %s: %d tuples, the corpus model has %d", tc.Table, tc.Tuples, want[tc.Table])
		}
	}
	for t := range want {
		if !seen[t] {
			return fmt.Errorf("table %s missing from the output", t)
		}
	}
	return nil
}

// checkSameInstances compares the streamed instance with the reference
// tree evaluation, table by table, after sorting both.
func checkSameInstances(streamed, ref map[string]*rel.Relation) error {
	if len(streamed) != len(ref) {
		return fmt.Errorf("%d streamed tables, %d reference tables", len(streamed), len(ref))
	}
	for name, want := range ref {
		got, ok := streamed[name]
		if !ok {
			return fmt.Errorf("table %s missing from the streamed instance", name)
		}
		got.Sort()
		want.Sort()
		if got.String() != want.String() {
			return fmt.Errorf("table %s: streamed instance (%d tuples) differs from the tree evaluation (%d tuples)",
				name, len(got.Tuples), len(want.Tuples))
		}
	}
	return nil
}

// checkCoverHolds checks every cover FD on the instance with the
// relational checker — the paper's soundness theorem for a document that
// satisfies Σ.
func checkCoverHolds(inst map[string]*rel.Relation, covers map[string][]rel.FD) error {
	for table, fds := range covers {
		r, ok := inst[table]
		if !ok {
			return fmt.Errorf("table %s missing", table)
		}
		for _, fd := range fds {
			if v := r.CheckFD(fd); len(v) > 0 {
				return fmt.Errorf("table %s: propagated FD %s fails on a Σ-satisfying document", table, fd.Format(r.Schema))
			}
		}
	}
	return nil
}

// checkProbes checks a cover against the generator's probes: one FD
// designed to be propagated, one designed not to be.
func checkProbes(fds []rel.FD, probeTrue, probeFalse rel.FD, s *rel.Schema) error {
	if !rel.Implies(fds, probeTrue) {
		return fmt.Errorf("cover does not imply the propagated probe %s", probeTrue.Format(s))
	}
	if rel.Implies(fds, probeFalse) {
		return fmt.Errorf("cover implies the unpropagated probe %s", probeFalse.Format(s))
	}
	return nil
}

// checkEquivalent checks Armstrong equivalence of two covers.
func checkEquivalent(got, want []rel.FD, s *rel.Schema) error {
	if !rel.EquivalentCovers(got, want) {
		return fmt.Errorf("cover %s is not equivalent to the reference %s", rel.FormatFDs(s, got), rel.FormatFDs(s, want))
	}
	return nil
}

// parseCover parses a cover returned over the wire.
func parseCover(s *rel.Schema, v any) ([]rel.FD, error) {
	list, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("cover is %T, not a list", v)
	}
	fds := make([]rel.FD, 0, len(list))
	for _, x := range list {
		text, ok := x.(string)
		if !ok {
			return nil, fmt.Errorf("cover entry is %T, not a string", x)
		}
		fd, err := rel.ParseFD(s, text)
		if err != nil {
			return nil, err
		}
		fds = append(fds, fd)
	}
	return fds, nil
}

// ddlKeyFDs reads the key constraints back out of generated DDL: each
// table's primary key determines its columns. Those FDs must follow from
// the cover the design was built from. stored is every column defined.
func ddlKeyFDs(s *rel.Schema, ddl string) (fds []rel.FD, stored rel.AttrSet, err error) {
	for _, stmt := range strings.Split(ddl, ";") {
		open := strings.Index(stmt, "(")
		close := strings.LastIndex(stmt, ")")
		if !strings.Contains(stmt, "CREATE TABLE") || open < 0 || close < open {
			continue
		}
		var cols rel.AttrSet
		var key rel.AttrSet
		haveKey := false
		for _, line := range strings.Split(stmt[open+1:close], "\n") {
			line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ","))
			switch {
			case line == "":
			case strings.HasPrefix(line, "PRIMARY KEY"):
				for _, n := range identList(line) {
					i := s.Index(n)
					if i < 0 {
						return nil, stored, fmt.Errorf("primary key column %q is not in %s", n, s.Name)
					}
					key = key.With(i)
				}
				haveKey = true
			case strings.HasPrefix(line, "FOREIGN KEY"), strings.HasPrefix(line, "UNIQUE"):
			default:
				n := strings.Trim(strings.Fields(line)[0], "\"`")
				if i := s.Index(n); i >= 0 {
					cols = cols.With(i)
				}
			}
		}
		if haveKey {
			fds = append(fds, rel.NewFD(key, cols))
		}
		stored = stored.Union(cols)
	}
	if len(fds) == 0 {
		return nil, stored, fmt.Errorf("no keyed table in the DDL")
	}
	return fds, stored, nil
}

// identList returns the identifiers inside the first parenthesised list.
func identList(line string) []string {
	open, close := strings.Index(line, "("), strings.Index(line, ")")
	if open < 0 || close < open {
		return nil
	}
	var out []string
	for _, p := range strings.Split(line[open+1:close], ",") {
		out = append(out, strings.Trim(strings.TrimSpace(p), "\"`"))
	}
	return out
}

// checkCandidates checks returned candidate keys against a reference
// cover with the textbook closure: each is a superkey and no attribute
// can be dropped from it.
func checkCandidates(s *rel.Schema, cover []rel.FD, v any) error {
	list, ok := v.([]any)
	if !ok || len(list) == 0 {
		return fmt.Errorf("candidates are %v, want a non-empty list", v)
	}
	all := s.All()
	for _, c := range list {
		names, ok := c.([]any)
		if !ok {
			return fmt.Errorf("candidate is %T, not a list", c)
		}
		var k rel.AttrSet
		var cols []string
		for _, n := range names {
			name, _ := n.(string)
			i := s.Index(name)
			if i < 0 {
				return fmt.Errorf("candidate names unknown attribute %q", name)
			}
			k = k.With(i)
			cols = append(cols, name)
		}
		sort.Strings(cols)
		if !all.SubsetOf(rel.Closure(cover, k)) {
			return fmt.Errorf("candidate {%s} is not a superkey", strings.Join(cols, ","))
		}
		for _, i := range k.Positions() {
			if all.SubsetOf(rel.Closure(cover, k.Without(i))) {
				return fmt.Errorf("candidate {%s} is not minimal", strings.Join(cols, ","))
			}
		}
	}
	return nil
}
