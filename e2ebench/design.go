package main

// design-cold: schema text in, DDL out — the paper's §6 experiment over a
// live xkserve. One closed-loop client sends /v1/ddl (bcnf) for schemas the
// registry has never seen, so xpath, xmlkey, core, rel and sqlgen do the
// work and every request misses the registry.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"time"

	"xkprop/internal/client"
	"xkprop/internal/core"
	"xkprop/internal/paperdata"
	"xkprop/internal/registry"
	"xkprop/internal/rel"
	"xkprop/internal/sqlgen"
	"xkprop/internal/transform"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
)

// designCell is one menu entry: a §6 workload cell sent mult times a round.
type designCell struct {
	cfg  workload.Config
	mult int
}

// designMenu is a fixed menu of bounded cold cost (README lists each
// cell's measured cost). Cells are never drawn at random: a round is the
// menu in one seeded order, so every round costs the same. The cheap-to-
// middle cells carry most of the weight so p50 sits inside one cluster.
var designMenu = []designCell{
	{workload.Config{Fields: 9, Depth: 3, Keys: 5, Width: 2}, 2},
	{workload.Config{Fields: 12, Depth: 3, Keys: 6}, 2},
	{workload.Config{Fields: 10, Depth: 5, Keys: 10}, 2},
	{workload.Config{Fields: 15, Depth: 4, Keys: 10}, 2},
	{workload.Config{Fields: 15, Depth: 5, Keys: 10}, 6},
	{workload.Config{Fields: 15, Depth: 3, Keys: 10}, 2},
	{workload.Config{Fields: 15, Depth: 7, Keys: 10}, 2},
	{workload.Config{Fields: 15, Depth: 6, Keys: 10}, 2},
	{workload.Config{Fields: 20, Depth: 5, Keys: 10}, 2},
	{workload.Config{Fields: 15, Depth: 5, Keys: 20}, 2},
	{workload.Config{Fields: 30, Depth: 5, Keys: 10}, 2},
}

// The deadline-overrun op: once a round, the steep cell is sent with a
// deadline far below its cover cost. MinimumCoverCtx checks its context
// only in the candidate search, so the cover usually completes late with a
// 200; either that or a typed 504 counts as a failed operation. Its schema
// is renamed by round number only, so it does not depend on the seed.
var (
	steepCell     = workload.Config{Fields: 20, Depth: 4, Keys: 15}
	steepDeadline = 2 * time.Millisecond
)

const (
	// designWindowRounds rounds make one latency window: 260 completed
	// designs, the same mix in every window, whose tail by the tail rule
	// is p90 (26 samples beyond it). p50 and the tail are the median
	// window's, so one host stall moves one window, not the run.
	designWindowRounds = 10
	designTail         = 90
	naiveMaxFields     = 12 // the exponential reference cover stays under a second up to here
	naiveSamples       = 2
	designPassReps     = 3 // rounds timed layer by layer in a traced run
	queuePassRounds    = 2 // rounds each of the queue pass's two senders sends
)

// labelRE matches the element labels workload.Generate emits: l1, l2, …
// and, for bushy cells, c0l1, c1l1, ….
var labelRE = regexp.MustCompile(`\b(?:c[0-9]+)?l[0-9]+\b`)

// template is a schema text split around its element labels, so a renamed
// copy is one concatenation: renaming keeps the cost and makes the text
// new to the registry.
type template []string // odd indexes are labels

func newTemplate(s string) template {
	var t template
	last := 0
	for _, m := range labelRE.FindAllStringIndex(s, -1) {
		t = append(t, s[last:m[0]], s[m[0]:m[1]])
		last = m[1]
	}
	return append(t, s[last:])
}

func (t template) render(tag string) string {
	var b strings.Builder
	for i, p := range t {
		b.WriteString(p)
		if i%2 == 1 {
			b.WriteString(tag)
		}
	}
	return b.String()
}

// designSchema is a generated cell with its text templates.
type designSchema struct {
	w         *workload.Workload
	keys, dsl template
	naiveOK   bool // small enough for the naive reference cover
}

func newDesignSchema(cfg workload.Config) *designSchema {
	w := workload.Generate(cfg)
	var kb strings.Builder
	for _, k := range w.Sigma {
		kb.WriteString(k.String())
		kb.WriteByte('\n')
	}
	d := &designSchema{w: w, keys: newTemplate(kb.String()), dsl: newTemplate(w.Rule.DSL()),
		naiveOK: cfg.Fields <= naiveMaxFields}
	return d
}

type ddlRequest struct {
	Keys      string `json:"keys"`
	Transform string `json:"transform"`
	Normalize string `json:"normalize"`
}

func (d *designSchema) request(tag string) ddlRequest {
	return ddlRequest{Keys: d.keys.render(tag), Transform: d.dsl.render(tag), Normalize: "bcnf"}
}

// designState is the program's set-up for design-cold: the service and a
// connected client.
type designState struct {
	l   *live
	cli *client.Client
	ct  *countingTransport
}

func runDesign(e *env) (*outcome, error) {
	ctx := context.Background()
	var round []*designSchema
	for _, c := range designMenu {
		d := newDesignSchema(c.cfg)
		for i := 0; i < c.mult; i++ {
			round = append(round, d)
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	steep := newDesignSchema(steepCell)
	seedTag := fmt.Sprintf("s%dx", rng.Int63()%1000003)

	build := func() (*designState, error) {
		var wrap func(http.Handler) http.Handler
		if e.tr != nil {
			wrap = timeHandler(e.tr)
		}
		l, err := startServer(serverConfig(), wrap)
		if err != nil {
			return nil, err
		}
		ct := &countingTransport{inner: transport()}
		cli := newClient(l.base, e.seed, ct)
		// The first request opens the connection; a client pays it once.
		if _, err := cli.Post(ctx, "/v1/implies", map[string]string{"keys": "(ε, (a, {}))", "key": "(ε, (a, {}))"}); err != nil {
			l.stop()
			return nil, err
		}
		return &designState{l: l, cli: cli, ct: ct}, nil
	}
	st, setup, err := setupMedian(build, func(s *designState) { s.cli.CloseIdle(); s.l.stop() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.l.stop()
	defer st.cli.CloseIdle()

	paperControl(ctx, e, st.cli)

	// Warm-up: one round of other names, untimed.
	for i, d := range round {
		if _, err := st.cli.Post(ctx, "/v1/ddl", d.request(fmt.Sprintf("w%d", i))); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	type sampled struct {
		d     *designSchema
		req   ddlRequest
		cover []rel.FD
	}
	var samples []sampled
	o := &outcome{setup: setup, tailPct: designTail, window: designWindowRounds * len(round)}
	before := readCounters(st.l)
	st.ct.attempts.Store(0)
	var verifyHits int64
	m := startMeter()
	for r := 0; time.Since(m.t0) < e.seconds; r++ {
		for i, d := range round {
			op := o.attempted
			o.attempted++
			req := d.request(fmt.Sprintf("%s%d", seedTag, op))
			span := e.tr.id()
			t0 := time.Now()
			out, err := st.cli.Post(e.withOp(ctx, op, span), "/v1/ddl", req)
			t1 := time.Now()
			e.tr.add(span, "client.op", 0, op, t0, t1)
			o.bytes += int64(len(req.Keys) + len(req.Transform))
			if err != nil {
				o.failed++
				e.fail("design op %d: %v", op, err)
				continue
			}
			o.lat = append(o.lat, t1.Sub(t0))
			if err := checkDDL(d, out); err != nil {
				e.fail("design op %d: %v", op, err)
			}
			if i == r%len(round) {
				// This round's verification: the cover the DDL was built
				// from, still cached in the registry, read back as a hit.
				cover, err := fetchCover(ctx, st.cli, d, req)
				verifyHits++
				if err != nil {
					e.fail("design op %d: %v", op, err)
				} else if d.naiveOK && len(samples) < naiveSamples && rng.Intn(4) == 0 {
					samples = append(samples, sampled{d, req, cover})
				}
			}
		}
		// The deadline-overrun op.
		op := o.attempted
		o.attempted++
		o.failed++
		req := steep.request(fmt.Sprintf("steep%d", r))
		span := e.tr.id()
		t0 := time.Now()
		_, err := st.cli.Post(e.withOp(ctx, op, span), "/v1/ddl?timeout="+steepDeadline.String(), req)
		t1 := time.Now()
		e.tr.add(span, "client.op", 0, op, t0, t1)
		o.bytes += int64(len(req.Keys) + len(req.Transform))
		var ce *client.Error
		if err != nil && !(errors.As(err, &ce) && ce.Kind == "deadline") {
			e.fail("deadline-overrun op: want a late 200 or a typed 504, got %v", err)
		}
		if err == nil && t1.Sub(t0) < steepDeadline {
			e.fail("deadline-overrun op met its deadline; the op no longer fails and the benchmark must change")
		}
	}
	m.stop(o)
	after := readCounters(st.l)
	if miss := after.misses - before.misses; miss != o.attempted {
		e.fail("%d of %d design ops missed the registry; every schema must be new", miss, o.attempted)
	}

	for _, s := range samples {
		if err := naiveCheck(ctx, s.d, s.req, s.cover); err != nil {
			e.fail("naive reference: %v", err)
		}
	}

	if e.tr != nil {
		o.layers = layerZeros()
		serverLayers(o.layers, e.tr, before, after, st.ct, o.attempted, verifyHits)
		o.layers["runtime.gc_cpu_ms_op"] = metric{ms(o.gcCPU) / float64(len(o.lat)), "ms/op"}
		if err := designPasses(ctx, e.tr, round, o.layers); err != nil {
			return nil, err
		}
		if err := queuePass(ctx, e.seed, round, o.layers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// paperControl checks the service on the paper's own example before
// timing, not as an operation: /v1/cover on Rule(U) must be equivalent
// to Example 3.1's published cover, and /v1/candidates must return minimal
// superkeys under it.
func paperControl(ctx context.Context, e *env, cli *client.Client) {
	s, paper := paperdata.PaperCover()
	body := map[string]string{"keys": paperdata.KeysText, "transform": paperdata.UniversalText}
	out, err := cli.Post(ctx, "/v1/cover", body)
	if err == nil {
		var cover []rel.FD
		if cover, err = parseCover(s, out["cover"]); err == nil {
			err = checkEquivalent(cover, paper, s)
		}
	}
	if err != nil {
		e.fail("paper control: /v1/cover on Rule(U): %v", err)
	}
	if out, err = cli.Post(ctx, "/v1/candidates", body); err == nil {
		err = checkCandidates(s, paper, out["candidates"])
	}
	if err != nil {
		e.fail("paper control: /v1/candidates on Rule(U): %v", err)
	}
}

// queuePass measures the admission queue, which the timed phase's single
// client never fills: a server with one executing slot takes design
// requests from two concurrent senders, so nearly every request waits
// for the other sender's to finish. It reports the mean queue wait per
// admitted request and the requests shed as busy.
func queuePass(ctx context.Context, seed int64, round []*designSchema, out map[string]metric) error {
	cfg := serverConfig()
	cfg.MaxInFlight = 1
	l, err := startServer(cfg, nil)
	if err != nil {
		return err
	}
	defer l.stop()
	before := readCounters(l)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for s := range errs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cli := newClient(l.base, seed, transport())
			defer cli.CloseIdle()
			for i := 0; i < queuePassRounds*len(round) && errs[s] == nil; i++ {
				req := round[i%len(round)].request(fmt.Sprintf("q%d_%d", s, i))
				_, errs[s] = cli.Post(ctx, "/v1/ddl", req)
			}
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("queue pass: %w", err)
	}
	after := readCounters(l)
	out["resilience.busy_sheds"] = metric{float64(after.busy - before.busy), "count"}
	if n := after.waitCount - before.waitCount; n > 0 {
		out["resilience.queue_wait_ms"] = metric{(after.waitMs - before.waitMs) / float64(n), "ms"}
	}
	return nil
}

// checkDDL checks one returned design: every attribute is stored, and the
// tables' key constraints never claim the generator's unpropagated probe.
func checkDDL(d *designSchema, out map[string]any) error {
	ddl, ok := out["ddl"].(string)
	if !ok {
		return fmt.Errorf("response has no DDL")
	}
	s := d.w.Rule.Schema
	fds, stored, err := ddlKeyFDs(s, ddl)
	if err != nil {
		return err
	}
	if !s.All().SubsetOf(stored) {
		return fmt.Errorf("DDL drops attributes %s", s.FormatSet(s.All().Minus(stored)))
	}
	if rel.Implies(fds, d.w.ProbeFalse) {
		return fmt.Errorf("DDL keys imply the unpropagated probe %s", d.w.ProbeFalse.Format(s))
	}
	return nil
}

// fetchCover reads back the cover a design was built from and checks it
// against the generator's probes.
func fetchCover(ctx context.Context, cli *client.Client, d *designSchema, req ddlRequest) ([]rel.FD, error) {
	out, err := cli.Post(ctx, "/v1/cover", map[string]string{"keys": req.Keys, "transform": req.Transform})
	if err != nil {
		return nil, fmt.Errorf("/v1/cover: %w", err)
	}
	s := d.w.Rule.Schema
	cover, err := parseCover(s, out["cover"])
	if err != nil {
		return nil, err
	}
	return cover, checkProbes(cover, d.w.ProbeTrue, d.w.ProbeFalse, s)
}

// naiveCheck compares a served cover with the exponential reference cover
// computed in process from the same texts.
func naiveCheck(ctx context.Context, d *designSchema, req ddlRequest, cover []rel.FD) error {
	sigma, err := xmlkey.ParseSet(strings.NewReader(req.Keys))
	if err != nil {
		return err
	}
	tr, err := transform.ParseString(req.Transform)
	if err != nil {
		return err
	}
	naive, err := core.NewEngine(sigma, tr.Rules[0]).NaiveCoverCtx(ctx)
	if err != nil {
		return err
	}
	return checkEquivalent(cover, naive, d.w.Rule.Schema)
}

// designPasses attributes one design op's time to layers by timing the
// program's public functions over designPassReps rounds of freshly renamed
// schemas.
// Implication time is the cold cover minus a second cover on an engine
// sharing the now-warm decider, which is left with candidate assembly and
// rel.Minimize.
func designPasses(ctx context.Context, tr *tracer, round []*designSchema, out map[string]metric) error {
	var compile, cold, warmCover, bcnf, ddl time.Duration
	var memo, intern, fds int
	var warm []*core.Engine // small cells' engines, cover cached, for candidate keys
	for i := 0; i < designPassReps*len(round); i++ {
		d := round[i%len(round)]
		req := d.request(fmt.Sprintf("p%d", i))
		op := -int64(i) - 1 // pass ops are numbered apart from the timed ones
		t0 := time.Now()
		art, err := registry.Compile(req.Keys, req.Transform)
		t1 := time.Now()
		if err != nil {
			return err
		}
		eng, err := art.Engine("")
		if err != nil {
			return err
		}
		t2 := time.Now()
		cover, err := eng.MinimumCoverCtx(ctx)
		t3 := time.Now()
		if err != nil {
			return err
		}
		if _, err := core.NewEngineWithDecider(eng.Decider(), eng.Rule()).MinimumCoverCtx(ctx); err != nil {
			return err
		}
		t4 := time.Now()
		s := eng.Rule().Schema
		frags := rel.BCNF(cover, s.All())
		t5 := time.Now()
		opts := sqlgen.Options{}
		_ = sqlgen.DDL(sqlgen.FromFragments(s, frags, opts), opts)
		t6 := time.Now()
		parent := tr.id()
		tr.record("registry.Compile", parent, op, t0, t1)
		tr.record("core.MinimumCover.cold", parent, op, t2, t3)
		tr.record("core.MinimumCover.warm", parent, op, t3, t4)
		tr.record("rel.BCNF", parent, op, t4, t5)
		tr.record("sqlgen.DDL", parent, op, t5, t6)
		tr.add(parent, "pass.design", 0, op, t0, t6)
		compile += t1.Sub(t0)
		cold += t3.Sub(t2)
		warmCover += t4.Sub(t3)
		bcnf += t5.Sub(t4)
		ddl += t6.Sub(t5)
		memo += eng.Decider().MemoSize()
		intern += eng.Decider().Interner().Size()
		fds += len(cover)
		if d.naiveOK && i < len(round) {
			warm = append(warm, eng)
		}
	}
	if err := candidatesPass(ctx, tr, warm, out); err != nil {
		return err
	}
	n := float64(designPassReps * len(round))
	out["registry.compile_ms"] = metric{ms(compile) / n, "ms"}
	out["xmlkey.implication_ms"] = metric{ms(cold-warmCover) / n, "ms"}
	out["rel.cover_warm_ms"] = metric{ms(warmCover) / n, "ms"}
	out["rel.bcnf_ms"] = metric{ms(bcnf) / n, "ms"}
	out["sqlgen.ddl_ms"] = metric{ms(ddl) / n, "ms"}
	out["xmlkey.memo_entries"] = metric{float64(memo) / n, "count"}
	out["xpath.intern_entries"] = metric{float64(intern) / n, "count"}
	out["rel.cover_fds"] = metric{float64(fds) / n, "count"}
	return nil
}
