package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/fgservice"
	"freerideg/internal/grid"
	"freerideg/internal/profile"
	"freerideg/internal/servecache"
	"freerideg/internal/units"
	"freerideg/internal/workpool"
)

// The traced serve run measures the layers under the HTTP handler
// without instrumenting the program: after a sampled request returns,
// the benchmark replays the same request through each layer's public
// API, the way the handler calls it, on layer instances of its own —
// strict decode, a servecache.Cache in front of core.Predictor.Predict
// or grid.RankEngine.Rank, profile.Store.Ingest, workpool.Pool.RunCtx,
// and the handler's two-space-indented encoder — timing each call as a
// span under the request's handler span.

// tracedHandler wraps the server's handler: every sample-th request gets
// a root span around ServeHTTP and is then replayed. The replay runs
// inside the exchange the caller times, so it shows in the traced run's
// latency: that difference is the tracing overhead the run reports.
type tracedHandler struct {
	h      http.Handler
	t      *tracer
	rp     *replayer
	sample uint64
	n      atomic.Uint64

	errMu sync.Mutex
	err   error // first replay failure
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if th.n.Add(1)%th.sample != 0 {
		th.h.ServeHTTP(w, r)
		return
	}
	var body []byte
	if r.Body != nil {
		var err error
		if body, err = readAll(r); err != nil {
			th.fail(err)
		}
	}
	tid := th.t.newTrace()
	start := time.Now()
	th.h.ServeHTTP(w, r)
	root := th.t.record(tid, -1, "fgservice.handler", start, time.Now())
	if err := th.rp.replay(tid, root, r.URL.Path, body); err != nil {
		th.fail(fmt.Errorf("replaying %s: %w", r.URL.Path, err))
	}
}

func (th *tracedHandler) fail(err error) {
	th.errMu.Lock()
	if th.err == nil {
		th.err = err
	}
	th.errMu.Unlock()
}

// readAll takes a request body and puts an identical one back, so the
// wrapped handler reads the same bytes.
func readAll(r *http.Request) ([]byte, error) {
	b, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(b))
	return b, err
}

// replayer holds the benchmark's own layer instances.
type replayer struct {
	t     *tracer
	srv   *fgservice.Server
	model core.AppModel
	topo  topology
	pool  *workpool.Pool
	rank  *grid.RankEngine
	store *profile.Store // ingest target, seeded from the server's snapshot

	predCache *servecache.Cache[fgservice.PredictResponse]
	selCache  *servecache.Cache[fgservice.SelectResponse]
	// probeCache is read at a fresh version on every probe, so each
	// probe is a miss with a fill: the cache layer's miss path.
	probeCache *servecache.Cache[fgservice.PredictResponse]
	probeVer   atomic.Uint64

	mu      sync.Mutex
	pred    *core.Predictor
	predVer uint64
}

func newReplayer(t *tracer, srv *fgservice.Server) (*replayer, error) {
	store, err := profile.NewStore(srv.Store().Snapshot().Doc(), profile.Options{Lookup: fgservice.AppModelLookup})
	if err != nil {
		return nil, fmt.Errorf("replay store: %w", err)
	}
	// Cache names label the caches' metric series; distinct names keep
	// the replay's counts out of the server's "predict"/"select" series.
	return &replayer{
		t:          t,
		srv:        srv,
		model:      fgservice.AppModelLookup(loadgenApp),
		pool:       workpool.New(0),
		rank:       grid.NewRankEngine(),
		store:      store,
		predCache:  servecache.New[fgservice.PredictResponse](servecache.Options{Name: "perfbench-predict"}),
		selCache:   servecache.New[fgservice.SelectResponse](servecache.Options{Name: "perfbench-select"}),
		probeCache: servecache.New[fgservice.PredictResponse](servecache.Options{Name: "perfbench-probe"}),
	}, nil
}

// predictor returns the predictor for the server's current snapshot,
// rebuilt only when the snapshot version moves (as the server does).
func (rp *replayer) predictor() (*core.Predictor, uint64, error) {
	snap := rp.srv.Store().Snapshot()
	ver := snap.Version()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.pred == nil || rp.predVer != ver {
		p, err := snap.Predictor(loadgenApp, rp.model)
		if err != nil {
			return nil, 0, err
		}
		rp.pred, rp.predVer = p, ver
	}
	return rp.pred, ver, nil
}

// strictDecode decodes a request body the way the handler does: unknown
// fields rejected, one JSON value only.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("request body holds more than one JSON value")
	}
	return nil
}

type encodeState struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// encodeStates mirrors the handler's pooled encoder: two-space indent,
// trailing newline.
var encodeStates = sync.Pool{New: func() any {
	st := new(encodeState)
	st.enc = json.NewEncoder(&st.buf)
	st.enc.SetIndent("", "  ")
	return st
}}

func encode(v any) error {
	st := encodeStates.Get().(*encodeState)
	defer encodeStates.Put(st)
	st.buf.Reset()
	return st.enc.Encode(v)
}

// replay runs one request's layer calls as spans under root.
func (rp *replayer) replay(tid uint64, root int, path string, body []byte) error {
	switch path {
	case "/predict":
		return rp.replayPredict(tid, root, body)
	case "/select":
		return rp.replaySelect(tid, root, body)
	case "/runs":
		return rp.replayRuns(tid, root, body)
	case "/predict/batch":
		return rp.replayPredictBatch(tid, root, body)
	case "/select/batch":
		return rp.replaySelectBatch(tid, root, body)
	}
	// /observe feeds the server's estimator; the handler span alone is
	// recorded.
	return nil
}

func (rp *replayer) replayPredict(tid uint64, root int, body []byte) error {
	d := rp.t.begin(tid, root, "fgservice.decode")
	var req fgservice.PredictRequest
	err := strictDecode(body, &req)
	var v core.Variant
	var cfg core.Config
	if err == nil {
		if v, err = variantOf(req.Variant); err == nil {
			cfg, err = req.Config.Config()
		}
	}
	rp.t.end(d)
	if err != nil {
		return err
	}
	pred, ver, err := rp.predictor()
	if err != nil {
		return err
	}
	resp, err := rp.cachedPredict(tid, root, rp.predCache, ver, pred, req.App, v, cfg)
	if err != nil {
		return err
	}
	e := rp.t.begin(tid, root, "fgservice.encode")
	err = encode(resp)
	rp.t.end(e)
	if err != nil {
		return err
	}
	// Probe the miss path: a fresh version forces a fill.
	probe := rp.t.begin(tid, root, "probe")
	rp.t.set(probe, func(s *span) { s.Probe = true })
	_, err = rp.cachedPredict(tid, probe, rp.probeCache, rp.probeVer.Add(1), pred, req.App, v, cfg)
	rp.t.end(probe)
	return err
}

// cachedPredict is the handler's cache-then-core path: a servecache Get
// whose fill runs core.Predictor.Predict. The Get span is named by its
// outcome, so hit and miss costs are separate populations.
func (rp *replayer) cachedPredict(tid uint64, parent int, cache *servecache.Cache[fgservice.PredictResponse],
	ver uint64, pred *core.Predictor, app string, v core.Variant, cfg core.Config) (fgservice.PredictResponse, error) {
	g := rp.t.begin(tid, parent, "servecache.get.hit")
	// filled is written by the fill before the cache closes the entry's
	// done channel and read after Get has received from it.
	filled := false
	resp, err := cache.Get(context.Background(), predictKey(app, v, cfg), ver, func(context.Context) (fgservice.PredictResponse, error) {
		filled = true
		f := rp.t.begin(tid, g, "core.predict")
		p, err := pred.Predict(cfg, v)
		rp.t.end(f)
		if err != nil {
			return fgservice.PredictResponse{}, err
		}
		return fgservice.PredictResponse{
			App: app, Variant: v.String(), StoreVersion: ver, Config: cfg,
			Tdisk: p.Tdisk, Tnetwork: p.Tnetwork, Tcompute: p.Tcompute,
			Tro: p.Tro, Tglobal: p.Tglobal, Texec: p.Texec(),
			Pretty: fmt.Sprintf("t_d=%v t_n=%v t_c=%v (T_exec %v)",
				p.Tdisk.Round(time.Millisecond), p.Tnetwork.Round(time.Millisecond),
				p.Tcompute.Round(time.Millisecond), p.Texec().Round(time.Millisecond)),
		}, nil
	})
	rp.t.end(g)
	if filled {
		rp.t.set(g, func(s *span) { s.Name = "servecache.get.miss" })
	}
	return resp, err
}

// predictKey and selectKey render cache keys the way the handler does.
func predictKey(app string, v core.Variant, cfg core.Config) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d|%g|%d", app, v, cfg.Cluster, cfg.DataNodes, cfg.ComputeNodes,
		float64(cfg.Bandwidth), int64(cfg.DatasetBytes))
}

func selectKey(app string, v core.Variant, total units.Bytes, deadline time.Duration) string {
	return fmt.Sprintf("%s|%s|%d|%d", app, v, int64(total), int64(deadline))
}

func (rp *replayer) replaySelect(tid uint64, root int, body []byte) error {
	d := rp.t.begin(tid, root, "fgservice.decode")
	var req fgservice.SelectRequest
	err := strictDecode(body, &req)
	var v core.Variant
	var total units.Bytes
	var deadline time.Duration
	if err == nil {
		if v, err = variantOf(req.Variant); err == nil {
			if total, err = units.ParseBytes(req.Size); err == nil && req.Deadline != "" {
				deadline, err = time.ParseDuration(req.Deadline)
			}
		}
	}
	rp.t.end(d)
	if err != nil {
		return err
	}
	resp, err := rp.cachedSelect(tid, root, req.App, v, total, deadline)
	if err != nil {
		return err
	}
	if req.Limit > 0 && req.Limit < len(resp.Candidates) {
		resp.Candidates = resp.Candidates[:req.Limit]
	}
	e := rp.t.begin(tid, root, "fgservice.encode")
	err = encode(resp)
	rp.t.end(e)
	if err != nil {
		return err
	}
	// Probe a warm ranking round: the engine's reuse path.
	pred, _, err := rp.predictor()
	if err != nil {
		return err
	}
	spec, err := bench.Dataset(req.App, total)
	if err != nil {
		return err
	}
	svc, err := rp.topo.service(spec)
	if err != nil {
		return err
	}
	probe := rp.t.begin(tid, root, "grid.rank")
	rp.t.set(probe, func(s *span) { s.Probe = true })
	_, err = rp.rank.Rank(context.Background(), svc, spec.Name, pred, v, 1)
	rp.t.end(probe)
	return err
}

// cachedSelect is the handler's cache-then-rank path.
func (rp *replayer) cachedSelect(tid uint64, parent int, app string, v core.Variant, total units.Bytes, deadline time.Duration) (fgservice.SelectResponse, error) {
	pred, ver, err := rp.predictor()
	if err != nil {
		return fgservice.SelectResponse{}, err
	}
	spec, err := bench.Dataset(app, total)
	if err != nil {
		return fgservice.SelectResponse{}, err
	}
	svc, err := rp.topo.service(spec)
	if err != nil {
		return fgservice.SelectResponse{}, err
	}
	g := rp.t.begin(tid, parent, "servecache.get.hit")
	filled := false // see cachedPredict
	resp, err := rp.selCache.Get(context.Background(), selectKey(app, v, total, deadline), ver, func(ctx context.Context) (fgservice.SelectResponse, error) {
		filled = true
		r := rp.t.begin(tid, g, "grid.rank")
		ranked, err := rp.rank.Rank(ctx, svc, spec.Name, pred, v, 1)
		rp.t.end(r)
		if err != nil {
			return fgservice.SelectResponse{}, err
		}
		out := fgservice.SelectResponse{App: app, Dataset: spec.Name, StoreVersion: ver, Size: total}
		if deadline > 0 {
			cand, err := grid.PlanFromRanked(ranked, deadline)
			if err != nil {
				return fgservice.SelectResponse{}, err
			}
			ranked = []grid.Candidate{cand}
		}
		out.Candidates = make([]fgservice.SelectCandidate, len(ranked))
		for i, c := range ranked {
			out.Candidates[i] = fgservice.SelectCandidate{
				Site: c.Replica.Site, Cluster: c.Config.Cluster,
				DataNodes: c.Config.DataNodes, ComputeNodes: c.Config.ComputeNodes,
				Bandwidth: c.Config.Bandwidth, Predicted: c.Prediction.Texec(),
				Pretty: fmt.Sprintf("%s: %d storage / %d compute @ %v, predicted %v",
					c.Replica.Site, c.Config.DataNodes, c.Config.ComputeNodes,
					c.Config.Bandwidth, c.Prediction.Texec().Round(time.Millisecond)),
			}
		}
		best := out.Candidates[0]
		out.Selected = &best
		return out, nil
	})
	rp.t.end(g)
	if filled {
		rp.t.set(g, func(s *span) { s.Name = "servecache.get.miss" })
	}
	return resp, err
}

func (rp *replayer) replayRuns(tid uint64, root int, body []byte) error {
	d := rp.t.begin(tid, root, "fgservice.decode")
	var req fgservice.RunRequest
	err := strictDecode(body, &req)
	var obs profile.Observation
	if err == nil {
		obs, err = observation(req)
	}
	rp.t.end(d)
	if err != nil {
		return err
	}
	i := rp.t.begin(tid, root, "profile.ingest")
	res, err := rp.store.Ingest(obs)
	rp.t.end(i)
	if err != nil {
		return err
	}
	e := rp.t.begin(tid, root, "fgservice.encode")
	err = encode(res)
	rp.t.end(e)
	return err
}

// observation parses a /runs body into a calibration sample as the
// handler does: config and the three required components, plus any of
// the optional ones given.
func observation(r fgservice.RunRequest) (profile.Observation, error) {
	cfg, err := r.Config.Config()
	if err != nil {
		return profile.Observation{}, err
	}
	obs := profile.Observation{App: r.App, Config: cfg, Iterations: r.Iterations}
	for _, d := range []struct {
		val string
		dst *time.Duration
	}{
		{r.Tdisk, &obs.Tdisk}, {r.Tnetwork, &obs.Tnetwork}, {r.Tcompute, &obs.Tcompute},
		{r.TdiskCached, &obs.TdiskCached}, {r.Tro, &obs.Tro}, {r.Tglobal, &obs.Tglobal},
	} {
		if d.val == "" {
			continue
		}
		if *d.dst, err = time.ParseDuration(d.val); err != nil {
			return profile.Observation{}, err
		}
	}
	for _, b := range []struct {
		val string
		dst *units.Bytes
	}{{r.ROBytesPerNode, &obs.ROBytesPerNode}, {r.BroadcastBytes, &obs.BroadcastBytes}} {
		if b.val == "" {
			continue
		}
		if *b.dst, err = units.ParseBytes(b.val); err != nil {
			return profile.Observation{}, err
		}
	}
	return obs, nil
}

// replayPredictBatch fans the batch's items over the benchmark's own
// worker pool, each through the cache-then-core path, as the batch
// handler does; the pool span carries the item count.
func (rp *replayer) replayPredictBatch(tid uint64, root int, body []byte) error {
	d := rp.t.begin(tid, root, "fgservice.decode")
	var req fgservice.PredictBatchRequest
	err := strictDecode(body, &req)
	rp.t.end(d)
	if err != nil {
		return err
	}
	pred, ver, err := rp.predictor()
	if err != nil {
		return err
	}
	out := fgservice.PredictBatchResponse{StoreVersion: ver, Items: make([]fgservice.PredictBatchItem, len(req.Items))}
	errs := make([]error, len(req.Items))
	w := rp.t.begin(tid, root, "workpool.run")
	rp.t.set(w, func(s *span) { s.Items = len(req.Items) })
	err = rp.pool.RunCtx(context.Background(), len(req.Items), 0, func(i int) {
		item := req.Items[i]
		v, err := variantOf(item.Variant)
		var cfg core.Config
		if err == nil {
			cfg, err = item.Config.Config()
		}
		var resp fgservice.PredictResponse
		if err == nil {
			resp, err = rp.cachedPredict(0, -1, rp.predCache, ver, pred, item.App, v, cfg)
		}
		out.Items[i].Response, errs[i] = &resp, err
	})
	rp.t.end(w)
	if err := errors.Join(append(errs, err)...); err != nil {
		return err
	}
	e := rp.t.begin(tid, root, "fgservice.encode")
	err = encode(out)
	rp.t.end(e)
	return err
}

func (rp *replayer) replaySelectBatch(tid uint64, root int, body []byte) error {
	d := rp.t.begin(tid, root, "fgservice.decode")
	var req fgservice.SelectBatchRequest
	err := strictDecode(body, &req)
	rp.t.end(d)
	if err != nil {
		return err
	}
	_, ver, err := rp.predictor()
	if err != nil {
		return err
	}
	out := fgservice.SelectBatchResponse{StoreVersion: ver, Items: make([]fgservice.SelectBatchItem, len(req.Items))}
	errs := make([]error, len(req.Items))
	w := rp.t.begin(tid, root, "workpool.run")
	rp.t.set(w, func(s *span) { s.Items = len(req.Items) })
	err = rp.pool.RunCtx(context.Background(), len(req.Items), 0, func(i int) {
		item := req.Items[i]
		v, err := variantOf(item.Variant)
		var total units.Bytes
		var deadline time.Duration
		if err == nil {
			if total, err = units.ParseBytes(item.Size); err == nil && item.Deadline != "" {
				deadline, err = time.ParseDuration(item.Deadline)
			}
		}
		var resp fgservice.SelectResponse
		if err == nil {
			resp, err = rp.cachedSelect(0, -1, item.App, v, total, deadline)
		}
		if item.Limit > 0 && item.Limit < len(resp.Candidates) {
			resp.Candidates = resp.Candidates[:item.Limit]
		}
		out.Items[i].Response, errs[i] = &resp, err
	})
	rp.t.end(w)
	if err := errors.Join(append(errs, err)...); err != nil {
		return err
	}
	e := rp.t.begin(tid, root, "fgservice.encode")
	err = encode(out)
	rp.t.end(e)
	return err
}
