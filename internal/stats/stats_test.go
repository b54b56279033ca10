package stats

import (
	"errors"
	"math/rand"
	"testing"
)

func TestKSSameDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	res, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatalf("KS: %v", err)
	}
	if res.PValue < 0.01 {
		t.Errorf("same-distribution p = %v, should not reject", res.PValue)
	}
	if res.Statistic > 0.15 {
		t.Errorf("statistic = %v, want small", res.Statistic)
	}
}

func TestKSDifferentDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 1.0 // shifted
	}
	res, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatalf("KS: %v", err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("shifted-distribution p = %v, should strongly reject", res.PValue)
	}
	if res.Statistic < 0.3 {
		t.Errorf("statistic = %v, want large", res.Statistic)
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	res, err := KolmogorovSmirnov(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 || res.PValue < 0.99 {
		t.Errorf("identical samples: %+v", res)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KolmogorovSmirnov(nil, []float64{1}); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("err = %v", err)
	}
}
