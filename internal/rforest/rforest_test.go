package rforest

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, Options{}); err == nil {
		t.Error("want error for empty training set")
	}
	if _, err := Train([]Example{{X: nil, Y: true}}, Options{}); err == nil {
		t.Error("want error for zero-dim features")
	}
	if _, err := Train([]Example{{X: []float64{1}, Y: true}, {X: []float64{1, 2}, Y: false}}, Options{}); err == nil {
		t.Error("want error for ragged features")
	}
}

func TestSingleClassPredictsThatClass(t *testing.T) {
	var exs []Example
	for i := 0; i < 10; i++ {
		exs = append(exs, Example{X: []float64{float64(i)}, Y: true})
	}
	f, err := Train(exs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Predict([]float64{3}) || f.Confidence([]float64{3}) != 1 {
		t.Error("all-positive training set should predict positive everywhere")
	}
}

func TestLearnsThresholdSplit(t *testing.T) {
	// y = x0 > 0.5, perfectly separable.
	var exs []Example
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		exs = append(exs, Example{X: []float64{x, rng.Float64()}, Y: x > 0.5})
	}
	f, err := Train(exs, Options{Trees: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		if f.Predict([]float64{x, rng.Float64()}) == (x > 0.5) {
			correct++
		}
	}
	if correct < 190 {
		t.Errorf("accuracy %d/200 on separable data", correct)
	}
	if f.NumTrees() != 15 {
		t.Errorf("trees = %d", f.NumTrees())
	}
}

func TestLearnsConjunction(t *testing.T) {
	// y = x0 > 0.5 AND x1 > 0.5 needs depth >= 2.
	var exs []Example
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		exs = append(exs, Example{X: []float64{a, b}, Y: a > 0.5 && b > 0.5})
	}
	f, err := Train(exs, Options{Trees: 20, Seed: 3, FeaturesPerSplit: 2})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	const n = 400
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		if f.Predict([]float64{a, b}) == (a > 0.5 && b > 0.5) {
			correct++
		}
	}
	if correct < n*90/100 {
		t.Errorf("accuracy %d/%d on conjunction", correct, n)
	}
}

func TestConfidenceIsGraded(t *testing.T) {
	// Noisy labels around the boundary should give intermediate
	// confidence somewhere.
	var exs []Example
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		x := rng.Float64()
		y := x+0.3*(rng.Float64()-0.5) > 0.5
		exs = append(exs, Example{X: []float64{x}, Y: y})
	}
	f, err := Train(exs, Options{Trees: 25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sawIntermediate := false
	for x := 0.0; x <= 1.0; x += 0.02 {
		c := f.Confidence([]float64{x})
		if c > 0.1 && c < 0.9 {
			sawIntermediate = true
		}
		if c < 0 || c > 1 {
			t.Fatalf("confidence out of range: %g", c)
		}
	}
	if !sawIntermediate {
		t.Error("confidence never intermediate on noisy data")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	var exs []Example
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		exs = append(exs, Example{X: x, Y: x[0] > x[1]})
	}
	f1, _ := Train(exs, Options{Seed: 42})
	f2, _ := Train(exs, Options{Seed: 42})
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if f1.Confidence(x) != f2.Confidence(x) {
			t.Fatal("training not deterministic for fixed seed")
		}
	}
}

func TestConfidenceDimensionMismatch(t *testing.T) {
	f, err := Train([]Example{{X: []float64{1, 2}, Y: true}, {X: []float64{0, 1}, Y: false}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Confidence([]float64{1}); got != 0 {
		t.Errorf("mismatched dims should yield 0, got %g", got)
	}
}

func TestMinLeafRespected(t *testing.T) {
	var exs []Example
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 60; i++ {
		x := rng.Float64()
		exs = append(exs, Example{X: []float64{x}, Y: x > 0.5})
	}
	// Huge MinLeaf forces single-leaf trees: everything predicts the
	// majority class.
	f, err := Train(exs, Options{MinLeaf: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c0 := f.Confidence([]float64{0.0})
	c1 := f.Confidence([]float64{1.0})
	if c0 != c1 {
		t.Errorf("single-leaf forest should be constant: %g vs %g", c0, c1)
	}
}

// TestNonPositiveOptionsSelectDefaults: a negative option means "use the
// default", like zero. Negative Trees used to train no trees (Confidence
// 0/0 = NaN) and negative FeaturesPerSplit panicked slicing the feature
// sample.
func TestNonPositiveOptionsSelectDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var exs []Example
	for i := 0; i < 80; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		exs = append(exs, Example{X: x, Y: x[0]+0.2*x[1] > 0.6})
	}
	def, err := Train(exs, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{Trees: -3, Seed: 3},
		{MaxDepth: -1, Seed: 3},
		{MinLeaf: -2, Seed: 3},
		{FeaturesPerSplit: -1, Seed: 3},
		{Trees: -1, MaxDepth: -1, MinLeaf: -1, FeaturesPerSplit: -1, Seed: 3},
	} {
		f, err := Train(exs, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if f.NumTrees() != def.NumTrees() {
			t.Errorf("%+v: %d trees, default %d", opt, f.NumTrees(), def.NumTrees())
		}
		for i := 0; i < 20; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			if got, want := f.Confidence(x), def.Confidence(x); got != want {
				t.Fatalf("%+v: Confidence(%v) = %v, default options give %v", opt, x, got, want)
			}
		}
	}
}

// TestConfidenceZeroAllocs is the dynamic half of Confidence's
// //mc:hotpath contract: scoring a vector allocates nothing.
func TestConfidenceZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	exs := randomDataset(rng, 200, 6, 1000)
	f, err := Train(exs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := exs[7].X
	if n := testing.AllocsPerRun(100, func() { _ = f.Confidence(x) }); n != 0 {
		t.Errorf("Confidence allocates %v times per call", n)
	}
}

// TestWarmFitZeroAllocs: refitting a forest on a training set no larger
// than its last one reuses the slab and scratch.
func TestWarmFitZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	exs := randomDataset(rng, 300, 6, 1000)
	var f Forest
	if err := f.Fit(exs, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	seed := int64(1)
	n := testing.AllocsPerRun(20, func() {
		seed++
		if err := f.Fit(exs[:250], Options{Seed: seed}); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("warm Fit allocates %v times per call", n)
	}
}

var benchForest *Forest

// BenchmarkTrain times a cold Train (fresh slab and scratch each call)
// at the default options on mixed-tie data.
func BenchmarkTrain(b *testing.B) {
	for _, n := range []int{200, 1000} {
		exs := randomDataset(rand.New(rand.NewSource(int64(n))), n, 9, 1000)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := Train(exs, Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				benchForest = f
			}
		})
	}
}
