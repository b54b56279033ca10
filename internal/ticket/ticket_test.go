package ticket

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atm/internal/timeseries"
)

func TestCount(t *testing.T) {
	demand := timeseries.Series{10, 50, 61, 70, 59}
	tests := []struct {
		name      string
		capacity  float64
		threshold float64
		want      int
	}{
		{"60% of 100", 100, 0.60, 2}, // 61 and 70 exceed the limit of 60
		{"70% of 100", 100, 0.70, 0},
		{"80% of 100", 100, 0.80, 0},
		{"60% of 50", 50, 0.60, 4},
		{"zero capacity", 0, 0.60, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Count(demand, tt.capacity, tt.threshold); got != tt.want {
				t.Errorf("Count = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestCountBoundaryIsStrict(t *testing.T) {
	// Exactly at the threshold: no ticket (demand must exceed).
	if got := Count(timeseries.Series{60}, 100, 0.6); got != 0 {
		t.Errorf("Count at boundary = %d, want 0", got)
	}
	if got := Count(timeseries.Series{60.0001}, 100, 0.6); got != 1 {
		t.Errorf("Count just above boundary = %d, want 1", got)
	}
}

// TestCountUsage: a usage-percent series is demand against a capacity
// of 100, strictly above the threshold tickets.
func TestCountUsage(t *testing.T) {
	usage := timeseries.Series{59, 60, 61, 85}
	if got := Count(usage, 100, 0.6); got != 2 {
		t.Errorf("Count(60%%) = %d, want 2", got)
	}
	if got := Count(usage, 100, 0.8); got != 1 {
		t.Errorf("Count(80%%) = %d, want 1", got)
	}
}

// Property: Count is monotone — more capacity never means more tickets,
// and a higher threshold never means more tickets.
func TestCountMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		d := make(timeseries.Series, n)
		for i := range d {
			d[i] = r.Float64() * 100
		}
		prev := -1
		for _, c := range []float64{10, 50, 100, 200} {
			got := Count(d, c, 0.6)
			if prev >= 0 && got > prev {
				return false
			}
			prev = got
		}
		c1 := Count(d, 80, 0.6)
		c2 := Count(d, 80, 0.8)
		return c2 <= c1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAnalyze(t *testing.T) {
	demands := []timeseries.Series{
		{70, 80, 90}, // all above 60% of 100
		{10, 20, 30}, // none
	}
	st, err := Analyze(demands, []float64{100, 100}, 0.6)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if st.Total != 3 {
		t.Errorf("Total = %d, want 3", st.Total)
	}
	if st.PerVM[0] != 3 || st.PerVM[1] != 0 {
		t.Errorf("PerVM = %v, want [3 0]", st.PerVM)
	}
	if _, err := Analyze(demands, []float64{100}, 0.6); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestCulprits(t *testing.T) {
	tests := []struct {
		name  string
		perVM []int
		frac  float64
		want  int
	}{
		{"one dominant", []int{80, 10, 5, 5}, 0.8, 1},
		{"two needed", []int{50, 40, 5, 5}, 0.8, 2},
		{"even spread", []int{25, 25, 25, 25}, 0.8, 4},
		{"no tickets", []int{0, 0}, 0.8, 0},
		{"all needed at 100%", []int{1, 1, 1}, 1.0, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := BoxStats{PerVM: tt.perVM}
			for _, c := range tt.perVM {
				st.Total += c
			}
			if got := st.Culprits(tt.frac); got != tt.want {
				t.Errorf("Culprits = %d, want %d", got, tt.want)
			}
		})
	}
}

// Property: culprit count is between 0 and len(PerVM), and increases
// with frac.
func TestCulpritsMonotoneInFrac(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		st := BoxStats{PerVM: make([]int, n)}
		for i := range st.PerVM {
			st.PerVM[i] = r.Intn(50)
			st.Total += st.PerVM[i]
		}
		prev := 0
		for _, frac := range []float64{0.2, 0.5, 0.8, 1.0} {
			got := st.Culprits(frac)
			if got < 0 || got > n || got < prev {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReduction(t *testing.T) {
	tests := []struct {
		before, after int
		want          float64
	}{
		{100, 40, 0.6},
		{100, 100, 0},
		{100, 150, -0.5},
		{0, 0, 0},
		{0, 5, -1},
		{10, 0, 1},
	}
	for _, tt := range tests {
		if got := Reduction(tt.before, tt.after); got != tt.want {
			t.Errorf("Reduction(%d,%d) = %v, want %v", tt.before, tt.after, got, tt.want)
		}
	}
}
