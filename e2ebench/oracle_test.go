package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"xkprop/internal/paperdata"
	"xkprop/internal/rel"
	"xkprop/internal/shred"
	"xkprop/internal/workload"
)

// Each oracle must accept the program's real output and fire on a
// deliberately corrupted copy of it.

func shredSmall(t *testing.T, d *dblpSchema, doc corpusDoc) (*shred.Result, map[string]*rel.Relation) {
	t.Helper()
	ms := shred.NewMemorySink()
	res, err := d.c.Run(context.Background(), bytes.NewReader(doc.xml), ms, shred.Options{Sigma: d.sigma, Covers: d.covers})
	if err != nil {
		t.Fatal(err)
	}
	return res, ms.Relations()
}

func TestIngestOraclesFireOnCorruption(t *testing.T) {
	d, err := compileDBLP()
	if err != nil {
		t.Fatal(err)
	}
	doc := generateDoc(7, 0, controlShape)
	if err := ingestOracle(context.Background(), d, doc); err != nil {
		t.Fatalf("oracle rejects the real output: %v", err)
	}
	res, inst := shredSmall(t, d, doc)
	if len(res.Tables) != len(doc.counts) {
		t.Fatalf("%d tables, the model has %d", len(res.Tables), len(doc.counts))
	}

	bad := append([]shred.TableCount(nil), res.Tables...)
	bad[2].Tuples++
	if checkCounts(bad, doc.counts) == nil {
		t.Error("checkCounts accepted a wrong tuple count")
	}
	if checkCounts(res.Tables[1:], doc.counts) == nil {
		t.Error("checkCounts accepted a missing table")
	}

	ref := map[string]*rel.Relation{}
	for n, r := range inst {
		c := rel.NewRelation(r.Schema)
		c.Tuples = append(c.Tuples, r.Tuples...)
		ref[n] = c
	}
	if err := checkSameInstances(inst, ref); err != nil {
		t.Fatalf("identical instances differ: %v", err)
	}
	ref["article"].Tuples = ref["article"].Tuples[1:]
	if checkSameInstances(inst, ref) == nil {
		t.Error("checkSameInstances accepted a dropped tuple")
	}

	// Give one article a second title: akey → title must fail.
	art := inst["article"]
	tup := append(rel.Tuple(nil), art.Tuples[0]...)
	tup[art.Schema.Index("title")] = rel.V("another title")
	for _, c := range []string{"pages", "jkey", "volume", "issue"} {
		tup[art.Schema.Index(c)] = rel.V("x") // null-free, as condition 2 needs
	}
	art.Tuples = append(art.Tuples, tup)
	if checkCoverHolds(inst, d.covers) == nil {
		t.Error("checkCoverHolds accepted a violated propagated FD")
	}
}

func TestNegativeControlDocsAreRejected(t *testing.T) {
	d, err := compileDBLP()
	if err != nil {
		t.Fatal(err)
	}
	for doc, fd := range map[string]bool{keyViolatingDoc: false, fdViolatingDoc: true} {
		res, err := d.c.Run(context.Background(), strings.NewReader(doc), shred.Discard{}, shred.Options{Sigma: d.sigma, Covers: d.covers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted() || (len(res.Violations) > 0) != fd {
			t.Errorf("control doc: accepted=%v, %d FD violations, want FD violations=%v", res.Accepted(), len(res.Violations), fd)
		}
	}
}

func TestCoverOraclesFireOnCorruption(t *testing.T) {
	s, paper := paperdata.PaperCover()
	if err := checkEquivalent(paper, paper, s); err != nil {
		t.Fatal(err)
	}
	if checkEquivalent(paper[1:], paper, s) == nil {
		t.Error("checkEquivalent accepted a cover missing an FD")
	}
	if _, err := parseCover(s, []any{"bookIsbn -> nosuch"}); err == nil {
		t.Error("parseCover accepted an unknown attribute")
	}
	if _, err := parseCover(s, "bookIsbn -> bookTitle"); err == nil {
		t.Error("parseCover accepted a non-list")
	}

	w := workload.Generate(workload.Config{Fields: 10, Depth: 5, Keys: 10})
	sc := w.Rule.Schema
	cover := []rel.FD{w.ProbeTrue}
	if err := checkProbes(cover, w.ProbeTrue, w.ProbeFalse, sc); err != nil {
		t.Fatal(err)
	}
	if checkProbes(nil, w.ProbeTrue, w.ProbeFalse, sc) == nil {
		t.Error("checkProbes accepted a cover without the propagated probe")
	}
	if checkProbes(append(cover, w.ProbeFalse), w.ProbeTrue, w.ProbeFalse, sc) == nil {
		t.Error("checkProbes accepted a cover implying the unpropagated probe")
	}
}

func TestCandidateOracleFiresOnCorruption(t *testing.T) {
	s, paper := paperdata.PaperCover()
	key := []any{"bookAuthor", "bookIsbn", "chapNum", "secNum"}
	if err := checkCandidates(s, paper, []any{key}); err != nil {
		t.Fatalf("the paper's key of U rejected: %v", err)
	}
	if checkCandidates(s, paper, []any{key[1:]}) == nil {
		t.Error("checkCandidates accepted a non-superkey")
	}
	if checkCandidates(s, paper, []any{append(key, "bookTitle")}) == nil {
		t.Error("checkCandidates accepted a non-minimal key")
	}
	if checkCandidates(s, paper, []any{}) == nil {
		t.Error("checkCandidates accepted no keys")
	}
}

const sampleDDL = `CREATE TABLE "R1" (
  "f1_0" VARCHAR(1024),
  "f1_1" VARCHAR(1024) NOT NULL,
  PRIMARY KEY ("f1_1")
);

CREATE TABLE "R2" (
  "f1_1" VARCHAR(1024) NOT NULL,
  "f2_0" VARCHAR(1024) NOT NULL,
  PRIMARY KEY ("f1_1", "f2_0"),
  FOREIGN KEY ("f1_1") REFERENCES "R1" ("f1_1")
);`

func TestDDLOracleFiresOnCorruption(t *testing.T) {
	w := workload.Generate(workload.Config{Fields: 3, Depth: 2, Keys: 2})
	d := &designSchema{w: w}
	if err := checkDDL(d, map[string]any{"ddl": sampleDDL}); err != nil {
		t.Fatalf("real-shaped DDL rejected: %v", err)
	}
	fds, _, err := ddlKeyFDs(w.Rule.Schema, sampleDDL)
	if err != nil || len(fds) != 2 {
		t.Fatalf("ddlKeyFDs = %v, %v; want two key FDs", fds, err)
	}
	if checkDDL(d, map[string]any{"ddl": strings.Replace(sampleDDL, `"f2_0" VARCHAR(1024) NOT NULL,`, "", 1)}) == nil {
		t.Error("checkDDL accepted a design that drops an attribute")
	}
	// A key on f2_0 alone claims f2_0 → f1_1, the unpropagated probe.
	if checkDDL(d, map[string]any{"ddl": strings.Replace(sampleDDL, `PRIMARY KEY ("f1_1", "f2_0")`, `PRIMARY KEY ("f2_0")`, 1)}) == nil {
		t.Error("checkDDL accepted keys implying the unpropagated probe")
	}
	if checkDDL(d, map[string]any{}) == nil {
		t.Error("checkDDL accepted a response without DDL")
	}
}

func TestRenamingReachesEveryLabel(t *testing.T) {
	for _, cfg := range append([]workload.Config{steepCell}, designMenuConfigs()...) {
		d := newDesignSchema(cfg)
		a, b := d.request("x1"), d.request("x2")
		if a.Keys == b.Keys || a.Transform == b.Transform {
			t.Errorf("%+v: renaming left a text unchanged", cfg)
		}
		if labelRE.MatchString(a.Keys) || labelRE.MatchString(a.Transform) {
			t.Errorf("%+v: a label escaped renaming", cfg)
		}
	}
}

func designMenuConfigs() []workload.Config {
	var out []workload.Config
	for _, c := range designMenu {
		out = append(out, c.cfg)
	}
	return out
}
