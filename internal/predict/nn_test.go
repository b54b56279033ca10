package predict

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"atm/internal/race"
	"atm/internal/timeseries"
)

// network is the trainer flatNet replaced, kept as the oracle: one
// slice per layer, every activation and delta vector allocated per
// step, samples handed over as a feature matrix. flatNet must perform
// the same floating-point operations in the same order.
type network struct {
	sizes   []int       // layer widths, input first
	weights [][]float64 // weights[l][j*in+i]: layer l, unit j, input i
	biases  [][]float64
	velW    [][]float64 // momentum buffers
	velB    [][]float64
}

// newNetwork builds a network with the given layer sizes (input size
// first, output size last) and Xavier-style initial weights drawn from
// rng.
func newNetwork(sizes []int, rng *rand.Rand) *network {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("predict: network needs >= 2 layers, got %v", sizes))
	}
	n := &network{sizes: sizes}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2.0 / float64(in+out))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		n.weights = append(n.weights, w)
		n.biases = append(n.biases, make([]float64, out))
		n.velW = append(n.velW, make([]float64, in*out))
		n.velB = append(n.velB, make([]float64, out))
	}
	return n
}

// forward runs the network, returning the activations of every layer
// (activations[0] is the input itself).
func (n *network) forward(x []float64) [][]float64 {
	acts := make([][]float64, len(n.sizes))
	acts[0] = x
	for l := 0; l < len(n.weights); l++ {
		in, out := n.sizes[l], n.sizes[l+1]
		a := make([]float64, out)
		for j := 0; j < out; j++ {
			sum := n.biases[l][j]
			row := n.weights[l][j*in : (j+1)*in]
			for i, w := range row {
				sum += w * acts[l][i]
			}
			if l < len(n.weights)-1 {
				a[j] = math.Tanh(sum) // hidden: tanh
			} else {
				a[j] = sum // output: linear
			}
		}
		acts[l+1] = a
	}
	return acts
}

// predict returns the network output for input x.
func (n *network) predict(x []float64) []float64 {
	acts := n.forward(x)
	return acts[len(acts)-1]
}

// step performs one SGD-with-momentum update on a single (x, target)
// pair and returns the squared error before the update.
func (n *network) step(x, target []float64, lr, momentum float64) float64 {
	acts := n.forward(x)
	out := acts[len(acts)-1]
	// delta at output: dE/dz = (out - target) for linear output + MSE.
	delta := make([]float64, len(out))
	var loss float64
	for j := range out {
		e := out[j] - target[j]
		delta[j] = e
		loss += e * e
	}
	// Backpropagate layer by layer.
	for l := len(n.weights) - 1; l >= 0; l-- {
		in, outSz := n.sizes[l], n.sizes[l+1]
		var prevDelta []float64
		if l > 0 {
			prevDelta = make([]float64, in)
		}
		for j := 0; j < outSz; j++ {
			d := delta[j]
			row := n.weights[l][j*in : (j+1)*in]
			velRow := n.velW[l][j*in : (j+1)*in]
			for i := 0; i < in; i++ {
				if prevDelta != nil {
					prevDelta[i] += row[i] * d
				}
				g := d * acts[l][i]
				velRow[i] = momentum*velRow[i] - lr*g
				row[i] += velRow[i]
			}
			n.velB[l][j] = momentum*n.velB[l][j] - lr*d
			n.biases[l][j] += n.velB[l][j]
		}
		if l > 0 {
			// Apply tanh derivative of the hidden activation.
			for i := 0; i < in; i++ {
				a := acts[l][i]
				prevDelta[i] *= 1 - a*a
			}
			delta = prevDelta
		}
	}
	return loss
}

// train runs epochs passes of SGD over the sample set in a shuffled
// order and returns the final mean squared error. The rng drives the
// shuffles so training is deterministic for a fixed seed.
func (n *network) train(xs, ys [][]float64, epochs int, lr, momentum float64, rng *rand.Rand) float64 {
	if len(xs) == 0 {
		return 0
	}
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	var last float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		for _, i := range order {
			sum += n.step(xs[i], ys[i], lr, momentum)
		}
		last = sum / float64(len(xs))
	}
	return last
}

// refMLP is MLP.Fit and MLP.Forecast as they ran on the reference
// network: a feature vector allocated per sample and per forecast
// step, the raw history cloned.
type refMLP struct {
	MLP     // hyper-parameters, mean and std
	net     *network
	history timeseries.Series
}

func (m *refMLP) features(buf timeseries.Series, t int) []float64 {
	x := make([]float64, 0, m.featureLen())
	start := m.lagStart(t)
	for k := 0; k < m.Lags; k++ {
		x = append(x, m.normalize(buf[start-k]))
	}
	if m.Period > 0 {
		ang := 2 * math.Pi * float64(t%m.Period) / float64(m.Period)
		x = append(x, math.Sin(ang), math.Cos(ang))
	}
	return x
}

func (m *refMLP) fit(history timeseries.Series) {
	m.history = history.Clone()
	m.mean = history.Mean()
	m.std = history.Std()
	var xs, ys [][]float64
	for t := m.minHistory(); t < len(history); t++ {
		xs = append(xs, m.features(history, t))
		ys = append(ys, []float64{m.normalize(history[t])})
	}
	sizes := []int{m.featureLen()}
	sizes = append(sizes, m.Hidden...)
	sizes = append(sizes, 1)
	rng := rand.New(rand.NewSource(m.Seed))
	m.net = newNetwork(sizes, rng)
	m.net.train(xs, ys, m.Epochs, m.LearningRate, m.Momentum, rng)
}

func (m *refMLP) forecast(horizon int) timeseries.Series {
	buf := make(timeseries.Series, len(m.history), len(m.history)+horizon)
	copy(buf, m.history)
	for t := 0; t < horizon; t++ {
		out := m.net.predict(m.features(buf, len(buf)))
		buf = append(buf, m.denormalize(out[0]))
	}
	return buf[len(m.history):]
}

// The flat trainer reproduces the reference bit for bit: every weight,
// every bias and a 96-step forecast, for each layer shape, with and
// without the seasonal encoding, on a constant history (std = 0), and
// when a retained model is refitted on a history of another length.
func TestMLPFitMatchesRef(t *testing.T) {
	constant := make(timeseries.Series, 300)
	for i := range constant {
		constant[i] = 42
	}
	histories := []timeseries.Series{
		noisySeasonal(1, 5, 96, 4),
		constant,
		noisySeasonal(2, 5, 96, 4)[:389], // a refit on a shorter window
		noisySeasonal(3, 6, 96, 4)[:517], // and on a longer one
	}
	for _, hidden := range [][]int{nil, {16}, {8, 4}} {
		for _, period := range []int{0, 96} {
			m := DefaultMLP(period) // retained across the histories
			m.Hidden = hidden
			m.Epochs = 6
			for hi, hist := range histories {
				ref := &refMLP{MLP: *m}
				ref.fit(hist)
				if err := m.Fit(hist); err != nil {
					t.Fatalf("hidden %v period %d history %d: Fit: %v", hidden, period, hi, err)
				}
				var want []float64
				for _, w := range ref.net.weights {
					want = append(want, w...)
				}
				for _, b := range ref.net.biases {
					want = append(want, b...)
				}
				if len(want) != len(m.net.params) {
					t.Fatalf("hidden %v period %d history %d: %d parameters, reference has %d",
						hidden, period, hi, len(m.net.params), len(want))
				}
				for i, w := range want {
					if math.Float64bits(m.net.params[i]) != math.Float64bits(w) {
						t.Fatalf("hidden %v period %d history %d: parameter %d = %v, reference %v",
							hidden, period, hi, i, m.net.params[i], w)
					}
				}
				got, err := m.Forecast(96)
				if err != nil {
					t.Fatalf("hidden %v period %d history %d: Forecast: %v", hidden, period, hi, err)
				}
				for i, w := range ref.forecast(96) {
					if math.Float64bits(got[i]) != math.Float64bits(w) {
						t.Fatalf("hidden %v period %d history %d: forecast[%d] = %v, reference %v",
							hidden, period, hi, i, got[i], w)
					}
				}
			}
		}
	}
}

// Fits on several goroutines draw their scratch (and its rand.Rand)
// from one pool; each must still train exactly as it does alone.
func TestMLPConcurrentFits(t *testing.T) {
	hist := noisySeasonal(1, 5, 96, 4)
	fit := func() timeseries.Series {
		m := DefaultMLP(96)
		m.Epochs = 3
		if err := m.Fit(hist); err != nil {
			t.Error(err)
			return nil
		}
		fc, err := m.Forecast(96)
		if err != nil {
			t.Error(err)
		}
		return fc
	}
	want := fit()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, v := range fit() {
				if v != want[i] {
					t.Errorf("concurrent fit: forecast[%d] = %v, alone %v", i, v, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Refitting a retained model and forecasting into a retained buffer
// allocates nothing: weights and the history copy are reused, the
// training scratch comes from the pool.
func TestMLPFitForecastAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	hist := noisySeasonal(1, 5, 96, 4)
	m := DefaultMLP(96)
	m.Epochs = 2
	var fc timeseries.Series
	fitForecast := func() {
		if err := m.Fit(hist); err != nil {
			t.Fatal(err)
		}
		var err error
		if fc, err = m.ForecastInto(fc[:0], 96); err != nil {
			t.Fatal(err)
		}
	}
	fitForecast() // grow the model, the buffer and the pooled scratch
	if allocs := testing.AllocsPerRun(20, fitForecast); allocs > 0 {
		t.Errorf("retained Fit+ForecastInto allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkMLPFit times one fit of the paper's default model on the
// serving path's five-day window, retained (the pipeline's steady
// state) — run with -benchmem.
func BenchmarkMLPFit(b *testing.B) {
	hist := noisySeasonal(1, 5, 96, 4)
	m := DefaultMLP(96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(hist); err != nil {
			b.Fatal(err)
		}
	}
}
