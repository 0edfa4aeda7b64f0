package main

// The ingest corpus: DBLP-shaped documents (journals → volumes → issues →
// articles, conferences → proceedings → sessions → inproceedings, and flat
// books), the shape Atay et al. shred in "Mapping XML Data to Relational
// Data: A DOM-Based Approach". Authors are drawn from a Zipf-skewed pool so
// that the person table deduplicates heavily; some titles carry mixed
// content and entity references. The generator keeps its own model of every
// document it writes, so per-table tuple counts are known without running
// the program under test.

import (
	"bytes"
	"fmt"
	"math/rand"
)

// dblpKeys is Σ for the corpus: every publication kind is keyed absolutely
// by @key, venues by @key, and each nesting level relative to its parent.
const dblpKeys = `
(ε, (//journal, {@key}))
(//journal, (name, {}))
(//journal, (volume, {@number}))
(//journal/volume, (year, {}))
(//journal/volume, (issue, {@number}))
(ε, (//article, {@key}))
(//article, (title, {}))
(//article, (pages, {}))
(ε, (//conf, {@key}))
(//conf, (name, {}))
(//conf, (proceedings, {@year}))
(//conf/proceedings, (session, {@number}))
(ε, (//inproceedings, {@key}))
(//inproceedings, (title, {}))
(//inproceedings, (pages, {}))
(ε, (//book, {@key}))
(//book, (title, {}))
(//book, (publisher, {}))
(//book, (year, {}))
`

// dblpTransform shreds the corpus into eight tables.
const dblpTransform = `
rule journal(jkey: j1, jname: j2) {
  xj := root / //journal
  j1 := xj / @key
  j2 := xj / name
}

rule issue(jkey: i1, volume: i2, year: i3, issue: i4) {
  xj := root / //journal
  i1 := xj / @key
  xv := xj / volume
  i2 := xv / @number
  i3 := xv / year
  xi := xv / issue
  i4 := xi / @number
}

rule article(akey: a1, title: a2, pages: a3, jkey: a4, volume: a5, issue: a6) {
  xj := root / //journal
  a4 := xj / @key
  xv := xj / volume
  a5 := xv / @number
  xi := xv / issue
  a6 := xi / @number
  xa := xi / article
  a1 := xa / @key
  a2 := xa / title
  a3 := xa / pages
}

rule article_author(akey: w1, author: w2) {
  xa := root / //article
  w1 := xa / @key
  w2 := xa / author
}

rule inproc(pkey: p1, title: p2, pages: p3, ckey: p4, year: p5, session: p6) {
  xc := root / //conf
  p4 := xc / @key
  xp := xc / proceedings
  p5 := xp / @year
  xs := xp / session
  p6 := xs / @number
  xq := xs / inproceedings
  p1 := xq / @key
  p2 := xq / title
  p3 := xq / pages
}

rule inproc_author(pkey: q1, author: q2) {
  xq := root / //inproceedings
  q1 := xq / @key
  q2 := xq / author
}

rule book(bkey: b1, title: b2, publisher: b3, year: b4) {
  xb := root / //book
  b1 := xb / @key
  b2 := xb / title
  b3 := xb / publisher
  b4 := xb / year
}

rule person(name: n1) {
  n1 := root / //author
}
`

// corpusShape sizes one document. The structure is fixed: every document
// has the same number of elements at every level and the same number of
// authors on each publication, so documents differ only in content
// (author names, titles, pages) and every document of every seed costs
// about the same. The counts are assumptions, not DBLP statistics (see
// README).
type corpusShape struct {
	journals, volumes, issues, articles int // per document, journal, volume, issue
	confs, procs, sessions, inprocs     int // per document, conf, proceedings, session
	books                               int
	maxAuthors                          int // publication k has 1 + k mod maxAuthors authors
	authorPool                          int
}

// ingestShape gives documents of about 1.5 MB: 3 240 articles, 1 920
// inproceedings and 360 books.
var ingestShape = corpusShape{
	journals: 30, volumes: 6, issues: 3, articles: 6,
	confs: 24, procs: 4, sessions: 4, inprocs: 5,
	books: 360, maxAuthors: 6, authorPool: 30000,
}

// controlShape is a document of a few KB with every table and feature of
// the ingest corpus, for the checks outside the timed phase.
var controlShape = corpusShape{
	journals: 2, volumes: 2, issues: 2, articles: 3,
	confs: 2, procs: 2, sessions: 2, inprocs: 3,
	books: 4, maxAuthors: 4, authorPool: 400,
}

// corpusDoc is one generated document with the generator's own tuple
// counts per table.
type corpusDoc struct {
	xml    []byte
	counts map[string]int64
}

var (
	firstNames = []string{"Wei", "Maria", "Jürgen", "Aiko", "Rahul", "Olga", "José", "Li", "Fatima", "Pierre",
		"Anna", "Kenji", "Søren", "Chen", "Ingrid", "Tomás", "Yuki", "Hassan", "Elena", "Łukasz"}
	lastNames = []string{"Wang", "Müller", "Suzuki", "Sharma", "Ivanova", "García", "Zhang", "Haddad", "Dubois",
		"Smith", "Tanaka", "Ångström", "Chen", "Berg", "Novák", "Kim", "Rossi", "Silva", "O'Neil", "Kowalski"}
	words = []string{"query", "XML", "keys", "relational", "storage", "index", "stream", "constraint",
		"propagation", "schema", "design", "normal", "form", "mapping", "tree", "path", "dependency",
		"efficient", "scalable", "semantics", "of", "for", "in", "with", "on", "data", "web"}
)

// authorName renders pool member i; names beyond the first/last product
// get a DBLP-style homonym number.
func authorName(i int) string {
	n := firstNames[i%len(firstNames)] + " " + lastNames[(i/len(firstNames))%len(lastNames)]
	if h := i / (len(firstNames) * len(lastNames)); h > 0 {
		n += fmt.Sprintf(" %04d", h)
	}
	return n
}

// escapeText escapes character data for the generated XML.
func escapeText(s string) string {
	var b bytes.Buffer
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '\'':
			b.WriteString("&apos;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// docGen writes one document and keeps its model.
type docGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	shape   corpusShape
	buf     bytes.Buffer
	counts  map[string]int64
	persons map[int]bool
	id      string
	pubs    int // publications written so far
}

// title writes a <title> with plain, entity-bearing or mixed content.
func (g *docGen) title() {
	n := 4 + g.rng.Intn(8)
	g.buf.WriteString("<title>")
	for i := 0; i < n; i++ {
		if i > 0 {
			g.buf.WriteByte(' ')
		}
		w := words[g.rng.Intn(len(words))]
		switch g.rng.Intn(12) {
		case 0:
			g.buf.WriteString("<i>" + w + "</i>")
		case 1:
			g.buf.WriteString("O<sub>2</sub>")
		case 2:
			g.buf.WriteString("Search &amp; " + w)
		default:
			g.buf.WriteString(w)
		}
	}
	g.buf.WriteString("</title>")
}

// authors writes the next publication's distinct authors and returns
// how many it wrote. Which authors is content; how many is structure.
func (g *docGen) authors() int64 {
	n := 1 + g.pubs%g.shape.maxAuthors
	g.pubs++
	seen := make(map[int]bool, n)
	for len(seen) < n {
		a := int(g.zipf.Uint64())
		if seen[a] {
			continue
		}
		seen[a] = true
		g.persons[a] = true
		g.buf.WriteString("<author>" + escapeText(authorName(a)) + "</author>")
	}
	return int64(n)
}

// pages writes the pages field of every publication but each tenth,
// whose pages field is NULL.
func (g *docGen) pages() {
	if g.pubs%10 == 0 {
		return
	}
	p := 1 + g.rng.Intn(400)
	fmt.Fprintf(&g.buf, "<pages>%d-%d</pages>", p, p+1+g.rng.Intn(30))
}

// generateDoc builds document number idx of the corpus for seed.
func generateDoc(seed int64, idx int, shape corpusShape) corpusDoc {
	rng := rand.New(rand.NewSource(seed*7919 + int64(idx)))
	g := &docGen{
		rng:     rng,
		zipf:    rand.NewZipf(rng, 1.15, 2, uint64(shape.authorPool-1)),
		shape:   shape,
		counts:  map[string]int64{},
		persons: map[int]bool{},
		id:      fmt.Sprintf("d%d", idx),
	}
	b := &g.buf
	b.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<dblp>\n")
	for j := 0; j < shape.journals; j++ {
		jkey := fmt.Sprintf("journals/%s/j%d", g.id, j)
		fmt.Fprintf(b, "<journal key=%q><name>Journal of %s %d</name>\n", jkey, words[rng.Intn(len(words))], j)
		g.counts["journal"]++
		for v := 0; v < shape.volumes; v++ {
			fmt.Fprintf(b, " <volume number=\"%d\"><year>%d</year>\n", v+1, 1990+v)
			for i := 0; i < shape.issues; i++ {
				fmt.Fprintf(b, "  <issue number=\"%d\">\n", i+1)
				g.counts["issue"]++
				for a := 0; a < shape.articles; a++ {
					fmt.Fprintf(b, "   <article key=\"%s/%d/%d/%d\" mdate=\"2003-0%d-1%d\">", jkey, v+1, i+1, a, 1+rng.Intn(9), rng.Intn(10))
					g.counts["article_author"] += g.authors()
					g.title()
					g.pages()
					b.WriteString("</article>\n")
					g.counts["article"]++
				}
				b.WriteString("  </issue>\n")
			}
			b.WriteString(" </volume>\n")
		}
		b.WriteString("</journal>\n")
	}
	for c := 0; c < shape.confs; c++ {
		ckey := fmt.Sprintf("conf/%s/c%d", g.id, c)
		fmt.Fprintf(b, "<conf key=%q><name>Conference on %s</name>\n", ckey, words[rng.Intn(len(words))])
		for p := 0; p < shape.procs; p++ {
			fmt.Fprintf(b, " <proceedings year=\"%d\"><booktitle>Proc. %d</booktitle>\n", 2000+p, 2000+p)
			for s := 0; s < shape.sessions; s++ {
				fmt.Fprintf(b, "  <session number=\"%d\">\n", s+1)
				for q := 0; q < shape.inprocs; q++ {
					fmt.Fprintf(b, "   <inproceedings key=\"%s/%d/%d/%d\">", ckey, 2000+p, s+1, q)
					g.counts["inproc_author"] += g.authors()
					g.title()
					g.pages()
					b.WriteString("</inproceedings>\n")
					g.counts["inproc"]++
				}
				b.WriteString("  </session>\n")
			}
			b.WriteString(" </proceedings>\n")
		}
		b.WriteString("</conf>\n")
	}
	for k := 0; k < shape.books; k++ {
		fmt.Fprintf(b, "<book key=\"books/%s/b%d\">", g.id, k)
		g.authors()
		g.title()
		fmt.Fprintf(b, "<publisher>%s</publisher><year>%d</year></book>\n",
			escapeText(lastNames[rng.Intn(len(lastNames))]+" & Sons"), 1980+rng.Intn(40))
		g.counts["book"]++
	}
	b.WriteString("</dblp>\n")
	g.counts["person"] = int64(len(g.persons))
	return corpusDoc{xml: b.Bytes(), counts: g.counts}
}

// keyViolatingDoc breaks (//journal, (volume, {@number})) only: the two
// same-numbered volumes agree on every field, so no propagated FD fails.
const keyViolatingDoc = `<dblp><journal key="j"><name>J</name>
<volume number="1"><year>2001</year><issue number="1"><article key="a1"><author>A</author><title>T1</title></article></issue></volume>
<volume number="1"><year>2001</year><issue number="2"><article key="a2"><author>B</author><title>T2</title></article></issue></volume>
</journal></dblp>`

// fdViolatingDoc repeats an article key with two titles, so the
// propagated akey → title fails (and, necessarily, the key it came from).
// The tuples carry no NULL: the paper's condition 2 compares only
// null-free tuples.
const fdViolatingDoc = `<dblp><journal key="j"><name>J</name>
<volume number="1"><year>2001</year>
<issue number="1"><article key="a1"><author>A</author><title>First</title><pages>1-9</pages></article></issue>
<issue number="2"><article key="a1"><author>A</author><title>Second</title><pages>1-9</pages></article></issue>
</volume></journal></dblp>`
