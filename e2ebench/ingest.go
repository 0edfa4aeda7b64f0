package main

// ingest-dblp: bytes of XML in, validated and FD-checked tuples out, as
// xkload does it. A closed loop shreds one multi-MB DBLP-shaped document at
// a time through shred.Compiled.Run with Σ on (stream key validation), the
// propagated minimum covers on (FD guard) and the CSV sink. The analysis
// layers run once, in set-up.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"xkprop/internal/core"
	"xkprop/internal/metrics"
	"xkprop/internal/rel"
	"xkprop/internal/shred"
	"xkprop/internal/stream"
	"xkprop/internal/transform"
	"xkprop/internal/xmlkey"
	"xkprop/internal/xmltok"
	"xkprop/internal/xmltree"
	"xkprop/internal/xpath"
)

const (
	ingestDocs = 4  // distinct documents, cycled
	ingestTail = 75 // fixed tail percentile: a 25 s run shreds about 100 documents
)

// dblpSchema is the compiled DBLP schema: Σ, σ, the shredder and every
// table's propagated minimum cover.
type dblpSchema struct {
	sigma  []xmlkey.Key
	tr     *transform.Transformation
	c      *shred.Compiled
	covers map[string][]rel.FD
}

// compileDBLP is what a user of the ingest plane pays before the first
// document: parse Σ and σ, compile the shredder, and propagate every
// table's minimum cover, as xkload does.
func compileDBLP() (*dblpSchema, error) {
	ctx := context.Background()
	sigma, err := xmlkey.ParseSet(strings.NewReader(dblpKeys))
	if err != nil {
		return nil, err
	}
	tr, err := transform.ParseString(dblpTransform)
	if err != nil {
		return nil, err
	}
	c, err := shred.Compile(tr)
	if err != nil {
		return nil, err
	}
	dec := xmlkey.NewDecider(sigma)
	covers := map[string][]rel.FD{}
	for _, rule := range tr.Rules {
		cover, err := core.NewEngineWithDecider(dec, rule).MinimumCoverCtx(ctx)
		if err != nil {
			return nil, err
		}
		covers[rule.Schema.Name] = cover
	}
	return &dblpSchema{sigma: sigma, tr: tr, c: c, covers: covers}, nil
}

// ingestState is the set-up for ingest-dblp: the compiled schema and the
// service the negative controls send /v1/shred to.
type ingestState struct {
	*dblpSchema
	l *live
}

func setupIngest() (*ingestState, error) {
	d, err := compileDBLP()
	if err != nil {
		return nil, err
	}
	l, err := startServer(serverConfig(), nil)
	if err != nil {
		return nil, err
	}
	return &ingestState{dblpSchema: d, l: l}, nil
}

func runIngest(e *env) (*outcome, error) {
	ctx := context.Background()
	docs := make([]corpusDoc, ingestDocs)
	for i := range docs {
		docs[i] = generateDoc(e.seed, i, ingestShape)
	}
	st, setup, err := setupMedian(setupIngest, func(s *ingestState) { s.l.stop() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.l.stop()

	negativeControls(ctx, e, st)
	sample := rand.New(rand.NewSource(e.seed)).Intn(len(docs))
	if err := ingestOracle(ctx, st.dblpSchema, docs[sample]); err != nil {
		e.fail("ingest oracle on document %d: %v", sample, err)
	}

	csvDir := filepath.Join(e.scratch, "csv")
	opts := shred.Options{Sigma: st.sigma, Covers: st.covers, Metrics: metrics.NewSet()}
	run := func(i int, sink shred.Sink) (*shred.Result, error) {
		return st.c.Run(ctx, bytes.NewReader(docs[i%len(docs)].xml), sink, opts)
	}
	if _, err := run(0, shred.NewCSVSink(csvDir)); err != nil { // warm-up
		return nil, err
	}
	opts.Metrics = metrics.NewSet()

	o := &outcome{setup: setup, tailPct: ingestTail}
	var sinkTime time.Duration
	var objs, allocBytes uint64
	m := startMeter()
	for i := 0; time.Since(m.t0) < e.seconds; i++ {
		doc := docs[i%len(docs)]
		var sink shred.Sink = shred.NewCSVSink(csvDir)
		var ts *timedSink
		if e.tr != nil {
			ts = &timedSink{inner: sink}
			sink = ts
		}
		o0, b0 := allocs()
		t0 := time.Now()
		res, err := run(i, sink)
		t1 := time.Now()
		o1, b1 := allocs()
		o.attempted++
		if e.tr != nil {
			e.tr.record("ingest.doc", 0, int64(i), t0, t1)
			objs, allocBytes, sinkTime = objs+o1-o0, allocBytes+b1-b0, sinkTime+ts.busy()
		}
		if err != nil {
			o.failed++
			e.fail("document %d: %v", i, err)
			continue
		}
		if !res.OK() {
			e.fail("document %d rejected: %d key, %d FD violations", i, len(res.StreamViolations), len(res.Violations))
		}
		if err := checkCounts(res.Tables, doc.counts); err != nil {
			e.fail("document %d: %v", i, err)
		}
		o.lat = append(o.lat, t1.Sub(t0))
		o.bytes += int64(len(doc.xml))
	}
	m.stop(o)

	if e.tr != nil {
		mb := float64(o.bytes) / 1e6
		counter := func(name string) float64 { return float64(opts.Metrics.Counter(name).Value()) }
		o.layers = layerZeros()
		o.layers["shred.sink_ms_per_mb"] = metric{ms(sinkTime) / mb, "ms/MB"}
		o.layers["shred.allocs_per_mb"] = metric{float64(objs) / mb, "allocs/MB"}
		o.layers["shred.alloc_bytes_per_mb"] = metric{float64(allocBytes) / mb, "B/MB"}
		o.layers["shred.tuples_per_mb"] = metric{counter("shred.tuples") / mb, "tuples/MB"}
		o.layers["shred.fd_checks_per_mb"] = metric{counter("shred.fd_checks") / mb, "checks/MB"}
		o.layers["shred.batches"] = metric{counter("shred.batches") / float64(len(o.lat)), "batches/doc"}
		o.layers["runtime.gc_cpu_ms_op"] = metric{ms(o.gcCPU) / float64(len(o.lat)), "ms/op"}
		xml := make([][]byte, len(docs))
		for i, d := range docs {
			xml[i] = d.xml
		}
		if err := ingestPasses(ctx, e.tr, st.dblpSchema, xml, 2, o.layers); err != nil {
			return nil, err
		}
		if err := requestPasses(e.tr, st.dblpSchema, o.layers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// negativeControls shows the ok-checks are not vacuous: a document that
// breaks a key and one that breaks a propagated FD must each be rejected
// with typed violations, by Run and by /v1/shred alike. A KB corpus
// document, the positive control, must be accepted by /v1/shred with the
// generator's per-table counts.
func negativeControls(ctx context.Context, e *env, st *ingestState) {
	cli := newClient(st.l.base, 1, transport())
	defer cli.CloseIdle()
	good := generateDoc(e.seed, ingestDocs, controlShape)
	out, err := cli.Post(ctx, "/v1/shred", map[string]any{"keys": dblpKeys, "transform": dblpTransform, "document": string(good.xml)})
	if err == nil {
		var tables []shred.TableCount
		if b, merr := json.Marshal(out["tables"]); merr != nil || json.Unmarshal(b, &tables) != nil {
			err = fmt.Errorf("tables are %v", out["tables"])
		} else if ok, _ := out["ok"].(bool); !ok {
			err = fmt.Errorf("rejected a Σ-satisfying document")
		} else {
			err = checkCounts(tables, good.counts)
		}
	}
	if err != nil {
		e.fail("positive control: /v1/shred: %v", err)
	}
	for _, c := range []struct {
		name, doc string
		fd        bool // expect FD violations, else key violations only
	}{{"key-violating", keyViolatingDoc, false}, {"FD-violating", fdViolatingDoc, true}} {
		res, err := st.c.Run(ctx, strings.NewReader(c.doc), shred.Discard{}, shred.Options{Sigma: st.sigma, Covers: st.covers})
		switch {
		case err != nil:
			e.fail("negative control %s: Run: %v", c.name, err)
		case res.OK() || len(res.StreamViolations) == 0 || res.StreamViolations[0].Key.String() == "":
			e.fail("negative control %s: Run accepted it or gave no typed key violation", c.name)
		case c.fd && len(res.Violations) == 0:
			e.fail("negative control %s: Run gave no FD violation", c.name)
		case !c.fd && len(res.Violations) != 0:
			e.fail("negative control %s: Run gave FD violations on a document whose FDs hold", c.name)
		}
		out, err := cli.Post(ctx, "/v1/shred", map[string]any{"keys": dblpKeys, "transform": dblpTransform, "document": c.doc})
		if err != nil {
			e.fail("negative control %s: /v1/shred: %v", c.name, err)
			continue
		}
		kv, _ := out["key_violations"].([]any)
		fv, _ := out["fd_violations"].([]any)
		if ok, _ := out["ok"].(bool); ok || len(kv) == 0 || (c.fd && len(fv) == 0) || (!c.fd && len(fv) != 0) {
			e.fail("negative control %s: /v1/shred answered ok=%v with %d key and %d FD violations", c.name, out["ok"], len(kv), len(fv))
		}
	}
}

// ingestOracle checks one document end to end against the tree-based
// reference: the streamed instance equals transform.Eval over
// xmltree.Parse, the generator's counts match, and every cover FD holds.
func ingestOracle(ctx context.Context, st *dblpSchema, doc corpusDoc) error {
	ms := shred.NewMemorySink()
	res, err := st.c.Run(ctx, bytes.NewReader(doc.xml), ms, shred.Options{Sigma: st.sigma, Covers: st.covers})
	if err != nil {
		return err
	}
	if !res.OK() {
		return fmt.Errorf("document rejected: %d key, %d FD violations", len(res.StreamViolations), len(res.Violations))
	}
	if err := checkCounts(res.Tables, doc.counts); err != nil {
		return err
	}
	tree, err := xmltree.Parse(bytes.NewReader(doc.xml))
	if err != nil {
		return err
	}
	ref := st.tr.Eval(tree)
	if err := checkSameInstances(ms.Relations(), ref); err != nil {
		return err
	}
	return checkCoverHolds(ref, st.covers)
}

// timedSink wraps a sink and sums the time spent inside WriteBatch.
type timedSink struct {
	inner   shred.Sink
	writers []*timedWriter
}

func (s *timedSink) Open(sc *rel.Schema) (shred.TableWriter, error) {
	w, err := s.inner.Open(sc)
	if err != nil {
		return nil, err
	}
	tw := &timedWriter{inner: w}
	s.writers = append(s.writers, tw) // Open is sequential, before the workers start
	return tw, nil
}

func (s *timedSink) busy() time.Duration {
	var d time.Duration
	for _, w := range s.writers {
		d += w.busy
	}
	return d
}

// timedWriter is owned by one rule worker, so busy needs no lock; it is
// read after Run has returned.
type timedWriter struct {
	inner shred.TableWriter
	busy  time.Duration
}

func (w *timedWriter) WriteBatch(rows []rel.Tuple) error {
	t0 := time.Now()
	err := w.inner.WriteBatch(rows)
	w.busy += time.Since(t0)
	return err
}

func (w *timedWriter) Close() error { return w.inner.Close() }

// ingestPasses attributes ingest time to layers by separate passes over
// the same documents: tokenizer only; tokenizer + stream validator; Run
// with neither Σ nor covers; Run with covers. Differences between passes
// give each layer's share. Each pass keeps its fastest of reps repetitions.
func ingestPasses(ctx context.Context, tr *tracer, st *dblpSchema, docs [][]byte, reps int, out map[string]metric) error {
	var total int64
	for _, d := range docs {
		total += int64(len(d))
	}
	passes := []string{"pass.xmltok", "pass.stream", "pass.shred_bare", "pass.shred_guard"}
	best := map[string]time.Duration{}
	var tokens int64
	for rep := 0; rep < reps; rep++ {
		sums := map[string]time.Duration{}
		tokens = 0
		for i, d := range docs {
			// Rotating the pass order spreads cache warm-up evenly, so no
			// pass is always the first over a document.
			for k := range passes {
				pass := passes[(i+rep+k)%len(passes)]
				t0 := time.Now()
				var err error
				switch pass {
				case "pass.xmltok":
					var n int64
					n, err = tokenize(d, st.sigma, nil)
					tokens += n
				case "pass.stream":
					_, err = tokenize(d, st.sigma, st.sigma)
				case "pass.shred_bare":
					_, err = st.c.Run(ctx, bytes.NewReader(d), shred.Discard{}, shred.Options{})
				case "pass.shred_guard":
					_, err = st.c.Run(ctx, bytes.NewReader(d), shred.Discard{}, shred.Options{Covers: st.covers})
				}
				t1 := time.Now()
				if err != nil {
					return fmt.Errorf("%s: %w", pass, err)
				}
				tr.record(pass, 0, -1, t0, t1)
				sums[pass] += t1.Sub(t0)
			}
		}
		for p, d := range sums {
			if b, ok := best[p]; !ok || d < b {
				best[p] = d
			}
		}
	}
	mb := float64(total) / 1e6
	per := func(d time.Duration) float64 { return ms(d) / mb }
	out["xmltok.ms_per_mb"] = metric{per(best["pass.xmltok"]), "ms/MB"}
	out["xmltok.tokens_per_mb"] = metric{float64(tokens) / mb, "tokens/MB"}
	out["stream.ms_per_mb"] = metric{per(best["pass.stream"] - best["pass.xmltok"]), "ms/MB"}
	out["shred.eval_ms_per_mb"] = metric{per(best["pass.shred_bare"] - best["pass.xmltok"]), "ms/MB"}
	out["shred.guard_ms_per_mb"] = metric{per(best["pass.shred_guard"] - best["pass.shred_bare"]), "ms/MB"}
	return nil
}

// passReps is how often the per-request passes repeat a call that takes
// tens of microseconds.
const passReps = 100

// requestPasses times what every /v1/shred and /v1/validate request pays
// today before it reads its document, although the registry holds the
// compiled schema: shred.Compile of the transformation and
// stream.NewValidator of Σ.
func requestPasses(tr *tracer, d *dblpSchema, out map[string]metric) error {
	t0 := time.Now()
	for i := 0; i < passReps; i++ {
		if _, err := shred.Compile(d.tr); err != nil {
			return err
		}
	}
	t1 := time.Now()
	for i := 0; i < passReps; i++ {
		stream.NewValidator(d.sigma)
	}
	t2 := time.Now()
	tr.record("pass.shred.Compile", 0, -1, t0, t1)
	tr.record("pass.stream.NewValidator", 0, -1, t1, t2)
	out["shred.compile_us"] = metric{float64(t1.Sub(t0).Microseconds()) / passReps, "us"}
	out["stream.validator_new_us"] = metric{float64(t2.Sub(t1).Microseconds()) / passReps, "us"}
	return nil
}

// candidatesPass times candidate-key enumeration, as /v1/candidates runs
// it, on engines whose cover is already cached.
func candidatesPass(ctx context.Context, tr *tracer, engines []*core.Engine, out map[string]metric) error {
	t0 := time.Now()
	for _, eng := range engines {
		for i := 0; i < passReps; i++ {
			if _, err := eng.CandidateKeysCtx(ctx, 0); err != nil {
				return err
			}
		}
	}
	t1 := time.Now()
	tr.record("pass.core.CandidateKeys", 0, -1, t0, t1)
	out["rel.candidates_ms"] = metric{ms(t1.Sub(t0)) / float64(passReps*len(engines)), "ms"}
	return nil
}

// tokenize runs the tokenizer to EOF over doc, feeding a stream validator
// for validate when it is non-nil. The interner is primed with the key
// paths' labels, as the pipeline's is, so label lookups hit.
func tokenize(doc []byte, labels, validate []xmlkey.Key) (int64, error) {
	in := xpath.NewInterner()
	v := stream.NewValidatorIn(in, labels)
	if validate == nil {
		v = nil
	}
	src, err := xmltok.Open(xmltok.DecoderFast, bytes.NewReader(doc), in)
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		tok, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		n++
		if v != nil {
			if err := v.Feed(tok); err != nil {
				return n, err
			}
		}
	}
	if v != nil && !v.OK() {
		return n, fmt.Errorf("validator rejected a Σ-satisfying document")
	}
	return n, nil
}
