package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/strategy"
)

// refFeedback is the full-history feedback state that the bounded views
// replaced, kept as the oracle: every round appends to a never-trimmed
// history, and a read copies it, sorts it best-first and truncates.
type refFeedback struct {
	seen, new map[string][]strategy.Feedback
}

func (r *refFeedback) add(name string, fb []strategy.Feedback) {
	if len(fb) == 0 {
		return
	}
	if r.seen == nil {
		r.seen = make(map[string][]strategy.Feedback)
	}
	if r.new == nil {
		r.new = make(map[string][]strategy.Feedback)
	}
	// Concatenate into fresh arrays: split children share the parent's.
	r.seen[name] = append(append([]strategy.Feedback(nil), r.seen[name]...), fb...)
	r.new[name] = append(append([]strategy.Feedback(nil), r.new[name]...), fb...)
}

func (r *refFeedback) read(name string, minimize bool) []strategy.Feedback {
	fb := append([]strategy.Feedback(nil), r.seen[name]...)
	strategy.SortBestFirst(fb, minimize)
	if len(fb) > maxFeedback {
		fb = fb[:maxFeedback]
	}
	return fb
}

func (r *refFeedback) split() *refFeedback { return &refFeedback{seen: maps.Clone(r.seen)} }

func (r *refFeedback) wait(children []*refFeedback) {
	for _, c := range children {
		for name, fb := range c.new {
			r.add(name, fb)
		}
	}
}

var fbNames = []string{"a", "b"}

// fbScores has many ties (including +0 and -0) and NaN, so the check covers
// stable tie-breaking and NaN ordering; rare continuous scores mix in.
var fbScores = []float64{0, 1, 2, -1, math.Copysign(0, -1), math.Inf(1), math.NaN()}

// randomBatch builds one round's feedback; every entry gets its own Params
// map so the comparison can check identity, not just equal contents.
func randomBatch(rng *rand.Rand, n int, ties bool) []strategy.Feedback {
	fb := make([]strategy.Feedback, n)
	for i := range fb {
		score := rng.NormFloat64()
		if ties {
			score = fbScores[rng.Intn(len(fbScores))]
		}
		fb[i] = strategy.Feedback{Params: map[string]float64{"x": float64(i)}, Score: score}
	}
	return fb
}

// sameFeedback compares p's views with the oracle for every region name in
// both directions, by score bits, order and Params identity.
func sameFeedback(p *P, ref *refFeedback) error {
	for _, name := range fbNames {
		for _, minimize := range []bool{true, false} {
			got, want := p.feedbackFor(name, minimize), ref.read(name, minimize)
			if len(got) != len(want) {
				return fmt.Errorf("%s minimize=%v: %d entries, want %d", name, minimize, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
					reflect.ValueOf(got[i].Params).UnsafePointer() != reflect.ValueOf(want[i].Params).UnsafePointer() {
					return fmt.Errorf("%s minimize=%v: entry %d = %v, want %v", name, minimize, i, got[i], want[i])
				}
			}
		}
	}
	return nil
}

// driveFeedback runs a random sequence of rounds, splits and waits on p and
// the oracle in lockstep, checking at the split point, after every Wait and
// at the end.
func driveFeedback(p *P, ref *refFeedback, seed int64, depth int) error {
	if err := sameFeedback(p, ref); err != nil {
		return fmt.Errorf("depth %d at split: %w", depth, err)
	}
	rng := rand.New(rand.NewSource(seed))
	var kids []*refFeedback
	steps := 4 + rng.Intn(16)
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(8); {
		case op == 0 && depth < 3:
			c := ref.split()
			kids = append(kids, c)
			childSeed := rng.Int63()
			p.Split(func(cp *P) error { return driveFeedback(cp, c, childSeed, depth+1) })
		case op == 1:
			if err := p.Wait(); err != nil {
				return err
			}
			ref.wait(kids)
			kids = nil
			if err := sameFeedback(p, ref); err != nil {
				return fmt.Errorf("depth %d step %d: %w", depth, i, err)
			}
		default:
			name := fbNames[rng.Intn(len(fbNames))]
			n := rng.Intn(16)
			if rng.Intn(8) == 0 {
				n = rng.Intn(2 * maxFeedback)
			}
			batch := randomBatch(rng, n, rng.Intn(4) != 0)
			p.addFeedback(name, batch)
			ref.add(name, batch)
		}
	}
	if err := p.Wait(); err != nil {
		return err
	}
	ref.wait(kids)
	return sameFeedback(p, ref)
}

// TestFeedbackViewMatchesFullHistory pins exactness: the bounded best-first
// views hand strategies exactly what sorting the full history would, over
// random split/Wait trees, histories far past maxFeedback entries, tied and
// NaN scores, and both score directions read from one region name.
func TestFeedbackViewMatchesFullHistory(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		run(t, New(Options{MaxPool: 4, Seed: seed}), func(p *P) error {
			ref := &refFeedback{}
			if err := driveFeedback(p, ref, seed, 0); err != nil {
				return fmt.Errorf("seed %d: %w", seed, err)
			}
			// Long single-process history in one name.
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 8; round++ {
				batch := randomBatch(rng, maxFeedback, round%2 == 0)
				p.addFeedback("a", batch)
				ref.add("a", batch)
			}
			if err := sameFeedback(p, ref); err != nil {
				return fmt.Errorf("seed %d long history: %w", seed, err)
			}
			return nil
		})
	}
}

// bytesPerRun reports the average heap bytes one call to f allocates.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFeedbackCostIndependentOfHistory pins the point of the bounded views:
// recording a scored round's feedback and reading it back allocates the
// same at round 500 as at round 10.
func TestFeedbackCostIndependentOfHistory(t *testing.T) {
	p := New(Options{Seed: 1}).newP(context.Background())
	rng := rand.New(rand.NewSource(1))
	batches := make([][]strategy.Feedback, 16)
	for i := range batches {
		batches[i] = randomBatch(rng, maxFeedback, false)
	}
	round := 0
	step := func() {
		p.addFeedback("r", batches[round%len(batches)])
		_ = p.feedbackFor("r", true)
		round++
	}
	for round < 10 {
		step()
	}
	early, earlyBytes := testing.AllocsPerRun(20, step), bytesPerRun(20, step)
	for round < 500 {
		step()
	}
	late, lateBytes := testing.AllocsPerRun(20, step), bytesPerRun(20, step)
	if early != late {
		t.Fatalf("allocations per round: %v at round 10, %v at round 500", early, late)
	}
	if lateBytes > earlyBytes+earlyBytes/4 {
		t.Fatalf("bytes per round grew with history: %d at round 10, %d at round 500", earlyBytes, lateBytes)
	}
}
