package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"psigene/internal/cluster"
	"psigene/internal/core"
	"psigene/internal/feature"
	"psigene/internal/httpx"
	"psigene/internal/matrix"
	"psigene/internal/ml"
	"psigene/internal/normalize"
)

// core.Train is one call, so the traced run re-runs its stages from the
// packages' public functions with core.Config's defaults, timing and
// recording a span around each layer's calls: the feature matrices
// (feature), biclustering (cluster) and the per-signature regressions
// (ml, with Train's worker count). The model the stages produce is
// compared with the trained one, so a drift between this replica and
// core.Train shows in the report.
const (
	maxClusterSamples = 2500 // core.Config.MaxClusterSamples default
	pruneThreshold    = 0.2  // core.Config.PruneThreshold default
	benignWeight      = 25   // core.Config.BenignWeight default
)

type stageTimes struct {
	matrixS, clusterS, mlS float64
	matches                bool
}

func normalized(reqs []httpx.Request) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = normalize.Normalize(r.Payload())
	}
	return out
}

func trainStages(c corpus, trained *core.Model, tr *tracer) (stageTimes, error) {
	var st stageTimes
	timed := func(name string, acc *float64, f func() error) error {
		start := time.Now()
		err := f()
		*acc += time.Since(start).Seconds()
		tr.record(name, start)
		return err
	}
	uniq, weights := feature.Dedupe(normalized(c.attacks))
	catalog := feature.Catalog()
	ex, err := feature.NewExtractor(catalog)
	if err != nil {
		return st, err
	}
	var full *matrix.Sparse
	if err := timed("feature.SparseMatrixParallel", &st.matrixS, func() (err error) {
		full, err = ex.SparseMatrixParallel(uniq, 0)
		return err
	}); err != nil {
		return st, err
	}
	observed, obsSet, _, err := feature.PruneUnobserved(full, catalog)
	if err != nil {
		return st, err
	}
	if observed, obsSet, _, err = feature.PruneDuplicateColumns(observed, obsSet); err != nil {
		return st, err
	}
	rows, rowW := observed, weights
	if observed.Rows() > maxClusterSamples {
		stride := observed.Rows() / maxClusterSamples
		var idx []int
		for i := 0; i < observed.Rows() && len(idx) < maxClusterSamples; i += stride {
			idx = append(idx, i)
		}
		if rows, err = observed.SelectRows(idx); err != nil {
			return st, err
		}
		rowW = make([]float64, len(idx))
		for k, i := range idx {
			rowW[k] = weights[i]
		}
	}
	if err := timed("cluster.Run", &st.clusterS, func() error {
		_, err := cluster.Run(rows, rowW, cluster.Options{})
		return err
	}); err != nil {
		return st, err
	}

	obsEx, err := feature.NewExtractor(obsSet)
	if err != nil {
		return st, err
	}
	benignUniq, benignW := feature.Dedupe(normalized(c.benign))
	var benignMat *matrix.Sparse
	if err := timed("feature.SparseMatrixParallel", &st.matrixS, func() (err error) {
		benignMat, err = obsEx.SparseMatrixParallel(benignUniq, 0)
		return err
	}); err != nil {
		return st, err
	}

	// One regression problem per active bicluster of the trained model,
	// stitched as core.Train stitches them.
	active := trained.Biclustering.ActiveBiclusters()
	type problem struct {
		x    matrix.RowMatrix
		y, w []float64
	}
	probs := make([]problem, len(active))
	for k, b := range active {
		attackSub, err := observed.SelectRows(b.RowLeaves)
		if err != nil {
			return st, err
		}
		attackCols, err := attackSub.SelectCols(b.Features)
		if err != nil {
			return st, err
		}
		benignCols, err := benignMat.SelectCols(b.Features)
		if err != nil {
			return st, err
		}
		bld := matrix.NewBuilder(len(b.Features), true)
		var p problem
		for i := 0; i < attackCols.Rows(); i++ {
			bld.AppendRowOf(attackCols, i)
			p.y, p.w = append(p.y, 1), append(p.w, weights[b.RowLeaves[i]])
		}
		for i := 0; i < benignCols.Rows(); i++ {
			bld.AppendRowOf(benignCols, i)
			p.y, p.w = append(p.y, 0), append(p.w, benignW[i]*benignWeight)
		}
		p.x = bld.Build()
		probs[k] = p
	}
	models := make([]*ml.LogisticModel, len(probs))
	errs := make([]error, len(probs))
	if err := timed("ml.TrainLogistic+Prune", &st.mlS, func() error {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < matrix.ResolveWorkers(0, len(probs)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					if k >= len(probs) {
						return
					}
					p := probs[k]
					lm, err := ml.TrainLogistic(p.x, p.y, p.w, ml.TrainOptions{})
					if err == nil {
						var pr *ml.PruneResult
						if pr, err = ml.Prune(p.x, p.y, p.w, lm, ml.TrainOptions{}, pruneThreshold); err == nil {
							lm = pr.Model
						}
					}
					models[k], errs[k] = lm, err
				}
			}()
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				return fmt.Errorf("signature %d: %w", active[k].ID, err)
			}
		}
		return nil
	}); err != nil {
		return st, err
	}
	st.matches = len(models) == len(trained.Signatures)
	for k := 0; st.matches && k < len(models); k++ {
		st.matches = sameModel(models[k], trained.Signatures[k].Model)
	}
	return st, nil
}

func sameModel(a, b *ml.LogisticModel) bool {
	if a.Bias != b.Bias || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			return false
		}
	}
	return true
}
