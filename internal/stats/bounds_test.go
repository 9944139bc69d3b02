package stats

import (
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

func TestWilsonInterval(t *testing.T) {
	t.Parallel()
	lo, hi := WilsonInterval(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("Wilson interval [%v, %v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("Wilson interval [%v, %v] too wide for n=100", lo, hi)
	}
	lo, hi = WilsonInterval(0, 100)
	if lo != 0 || hi > 0.06 {
		t.Fatalf("Wilson interval for 0/100 = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(100, 100)
	if hi != 1 || lo < 0.94 {
		t.Fatalf("Wilson interval for 100/100 = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("Wilson interval with no trials = [%v, %v], want [0,1]", lo, hi)
	}
}

func TestBootstrapCI(t *testing.T) {
	t.Parallel()
	src := rng.New(55)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = src.NormFloat64() + 42
	}
	lo, hi, err := BootstrapCI(xs, 0.95, 500, src)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 42 || hi < 42 {
		t.Fatalf("bootstrap CI [%v, %v] misses true mean 42", lo, hi)
	}
	if hi-lo > 0.5 {
		t.Fatalf("bootstrap CI [%v, %v] too wide", lo, hi)
	}
	if _, _, err := BootstrapCI(nil, 0.95, 100, src); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, _, err := BootstrapCI(xs, 1.5, 100, src); err == nil {
		t.Fatal("bad level accepted")
	}
}
