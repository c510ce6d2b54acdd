package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/traffic"
)

// The retrain phase trains on a fixed paper-scale corpus: the paper
// crawled ~30k attack samples and trained against a benign trace. The
// corpus does not depend on the run's seed, so the held-out TPR and TNR
// are exact figures of the code and any change to them is a change in
// detection, not noise.
const (
	corpusSeed   = 2014
	trainAttacks = 24000
	trainBenign  = 24000
	heldPerTool  = 2000 // held-out attacks per attackgen profile
	heldBenign   = 20000
)

type corpus struct {
	attacks, benign []httpx.Request
	held            []httpx.Request // labeled by Request.Malicious
}

func paperCorpus() corpus {
	c := corpus{
		attacks: attackgen.NewGenerator(attackgen.CrawlProfile(), corpusSeed).Requests(trainAttacks),
		benign:  traffic.NewGenerator(corpusSeed + 1).Requests(trainBenign),
	}
	for k, p := range []attackgen.Profile{
		attackgen.CrawlProfile(), attackgen.SQLMapProfile(),
		attackgen.ArachniProfile(), attackgen.VegaProfile(),
	} {
		c.held = append(c.held, attackgen.NewGenerator(p, corpusSeed+10+int64(k)).Requests(heldPerTool)...)
	}
	c.held = append(c.held, traffic.NewGenerator(corpusSeed+20).Requests(heldBenign)...)
	return c
}

type retrainResult struct {
	trainS    []float64 // trainings that ran with CPU steal below maxSteal
	contended []float64 // trainings set aside for CPU steal
	hash      string
	modelJSON []byte
	model     *core.Model // the first trained model, kept when asked
	tpr, tnr  float64
	conf      ids.Confusion
	sigs      int
	features  int
}

// train runs one timed core.Train on the corpus, and once more if the
// host stole more than maxSteal of the CPU time while it ran. The first
// model's saved bytes and hash are kept and the model scores the
// held-out set (keep retains the model itself, training state
// included); every later model must save to the same bytes.
func (res *retrainResult) train(c corpus, keep bool) error {
	for try := 0; try < 2; try++ {
		m0 := startSteal()
		start := time.Now()
		m, err := core.Train(c.attacks, c.benign, core.Config{})
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		el, contended := time.Since(start).Seconds(), m0.share() > maxSteal
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return fmt.Errorf("save model: %w", err)
		}
		sum := sha256.Sum256(buf.Bytes())
		h := hex.EncodeToString(sum[:])
		switch {
		case res.hash == "":
			res.hash, res.modelJSON = h, buf.Bytes()
			res.sigs, res.features = len(m.Signatures), m.Features.Len()
			if keep {
				res.model = m
			}
			ev := ids.ParallelEvaluate(m, c.held, 0)
			res.conf = ev.Confusion()
			res.tpr, res.tnr = ev.TPR(), 1-ev.FPR()
		case h != res.hash:
			return fmt.Errorf("model hash differs between trainings on the same corpus: %s vs %s", res.hash, h)
		}
		if !contended {
			res.trainS = append(res.trainS, el)
			return nil
		}
		res.contended = append(res.contended, el)
	}
	return nil
}

// trainings is how many trainings ran, including those set aside.
func (res *retrainResult) trainings() int { return len(res.trainS) + len(res.contended) }

// seconds returns the times of the clean trainings, or of every
// training if none was clean.
func (res *retrainResult) seconds() []float64 {
	if len(res.trainS) == 0 {
		return res.contended
	}
	return res.trainS
}
