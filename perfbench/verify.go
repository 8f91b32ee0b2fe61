package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/fgservice"
	"freerideg/internal/grid"
	"freerideg/internal/units"
)

// readVerifier checks every serve-read answer against the benchmark's
// own computation on the store snapshot the server answers from: a
// /predict body must equal core.Predictor.Predict on that snapshot, and
// a /select top candidate must equal what a benchmark-owned
// grid.Selector ranks over fgservice.DefaultSites/DefaultOffers. No
// write reaches the server, so the snapshot is fixed for the whole run
// (runServe checks it did not move).
//
// The first answer to each distinct request body is checked field by
// field and its bytes kept; every later answer to the same body must be
// byte-identical to it, which keeps the per-request cost at one map
// lookup and one compare.
type readVerifier struct {
	version uint64
	pred    *core.Predictor

	mu       sync.RWMutex
	verified map[string]map[string][]byte // path -> body -> answer bytes

	topo topology
}

func newReadVerifier(srv *fgservice.Server) (*readVerifier, error) {
	snap := srv.Store().Snapshot()
	pred, err := snap.Predictor(loadgenApp, fgservice.AppModelLookup(loadgenApp))
	if err != nil {
		return nil, fmt.Errorf("verifier predictor: %w", err)
	}
	return &readVerifier{
		version:  snap.Version(),
		pred:     pred,
		verified: map[string]map[string][]byte{"/predict": {}, "/select": {}},
	}, nil
}

// loadgenApp is the application loadgen's default workload targets.
const loadgenApp = "kmeans"

func (v *readVerifier) check(path string, body []byte, status int, resp []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, resp)
	}
	v.mu.RLock()
	want, seen := v.verified[path][string(body)]
	v.mu.RUnlock()
	if seen {
		if !bytes.Equal(want, resp) {
			return errors.New("answer differs from the verified answer to the same request")
		}
		return nil
	}
	var err error
	switch path {
	case "/predict":
		err = v.checkPredict(body, resp)
	case "/select":
		err = v.checkSelect(body, resp)
	default:
		err = fmt.Errorf("unexpected path on a read-only workload")
	}
	if err != nil {
		return err
	}
	v.mu.Lock()
	v.verified[path][string(body)] = append([]byte(nil), resp...)
	v.mu.Unlock()
	return nil
}

func variantOf(name string) (core.Variant, error) {
	if name == "" {
		return core.GlobalReduction, nil // fgservice's default variant
	}
	return core.ParseVariant(name)
}

func (v *readVerifier) checkPredict(body, resp []byte) error {
	var req fgservice.PredictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	variant, err := variantOf(req.Variant)
	if err != nil {
		return err
	}
	cfg, err := req.Config.Config()
	if err != nil {
		return err
	}
	want, err := v.pred.Predict(cfg, variant)
	if err != nil {
		return err
	}
	var got fgservice.PredictResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	switch {
	case got.StoreVersion != v.version:
		return fmt.Errorf("storeVersion %d, snapshot is %d", got.StoreVersion, v.version)
	case got.App != req.App || got.Variant != variant.String():
		return fmt.Errorf("answer for %s/%s, asked %s/%s", got.App, got.Variant, req.App, variant)
	case got.Config != cfg:
		return fmt.Errorf("config %v, asked %v", got.Config, cfg)
	case got.Tdisk != want.Tdisk || got.Tnetwork != want.Tnetwork || got.Tcompute != want.Tcompute ||
		got.Tro != want.Tro || got.Tglobal != want.Tglobal || got.Texec != want.Texec():
		return fmt.Errorf("prediction %v/%v/%v, core.Predictor says %v/%v/%v",
			got.Tdisk, got.Tnetwork, got.Tcompute, want.Tdisk, want.Tnetwork, want.Tcompute)
	}
	return nil
}

// topology is the benchmark's own selection topology, one grid.Service
// per dataset: every default site holds a round-robin replica at its
// static bandwidth, and every default offer is available. That is the
// server's topology as long as no /observe has moved its estimator.
type topology struct {
	mu       sync.Mutex
	services map[string]*grid.Service // dataset name -> service
}

func (tp *topology) service(spec adr.DatasetSpec) (*grid.Service, error) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if svc, ok := tp.services[spec.Name]; ok {
		return svc, nil
	}
	svc := grid.NewService()
	for _, site := range fgservice.DefaultSites() {
		layout, err := adr.Partition(spec, site.StorageNodes, adr.RoundRobin)
		if err != nil {
			return nil, err
		}
		if err := svc.Replicas.Register(adr.Replica{
			Site: site.Name, Cluster: site.Cluster, StorageNodes: site.StorageNodes, Layout: layout,
		}); err != nil {
			return nil, err
		}
		if err := svc.SetBandwidth(site.Name, site.Cluster, site.Bandwidth); err != nil {
			return nil, err
		}
	}
	for _, off := range fgservice.DefaultOffers() {
		if err := svc.AddOffer(off); err != nil {
			return nil, err
		}
	}
	if tp.services == nil {
		tp.services = make(map[string]*grid.Service)
	}
	tp.services[spec.Name] = svc
	return svc, nil
}

func (v *readVerifier) checkSelect(body, resp []byte) error {
	var req fgservice.SelectRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	variant, err := variantOf(req.Variant)
	if err != nil {
		return err
	}
	total, err := units.ParseBytes(req.Size)
	if err != nil {
		return err
	}
	spec, err := bench.Dataset(req.App, total)
	if err != nil {
		return err
	}
	svc, err := v.topo.service(spec)
	if err != nil {
		return err
	}
	sel := &grid.Selector{Predictor: v.pred, Variant: variant, Parallel: 1}
	var want grid.Candidate
	if req.Deadline != "" {
		deadline, err := time.ParseDuration(req.Deadline)
		if err != nil {
			return err
		}
		if want, err = grid.PlanCapacity(sel, svc, spec.Name, deadline); err != nil {
			return err
		}
	} else if want, err = sel.Select(svc, spec.Name); err != nil {
		return err
	}
	var got fgservice.SelectResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if got.StoreVersion != v.version {
		return fmt.Errorf("storeVersion %d, snapshot is %d", got.StoreVersion, v.version)
	}
	if len(got.Candidates) == 0 || got.Selected == nil {
		return errors.New("answer has no selected candidate")
	}
	for _, c := range []fgservice.SelectCandidate{got.Candidates[0], *got.Selected} {
		if c.Site != want.Replica.Site || c.Cluster != want.Config.Cluster ||
			c.DataNodes != want.Config.DataNodes || c.ComputeNodes != want.Config.ComputeNodes ||
			c.Bandwidth != want.Config.Bandwidth || c.Predicted != want.Prediction.Texec() {
			return fmt.Errorf("top candidate %s %d/%d predicted %v, grid.Selector picks %s %d/%d predicted %v",
				c.Site, c.DataNodes, c.ComputeNodes, c.Predicted,
				want.Replica.Site, want.Config.DataNodes, want.Config.ComputeNodes, want.Prediction.Texec())
		}
	}
	return nil
}
