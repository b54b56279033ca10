package predict

import (
	"math"
	"math/rand"
	"sync"
)

// flatNet is a small feed-forward neural network with tanh hidden
// layers and one linear output, trained by stochastic gradient descent
// with momentum on squared error. It is deliberately minimal: the paper
// only needs "a neural network temporal model" as the expensive, high
// accuracy member of the model family.
//
// It holds the parameters only, in one allocation; whatever else a
// pass writes lives in a pooled trainScratch, so a retained model
// costs its weights and nothing more.
type flatNet struct {
	sizes []int // layer widths: input first, the single output last
	// params is every layer's weights in layer order (within a layer
	// unit j's input weights are contiguous at [j*in, (j+1)*in)),
	// followed from index nw by every layer's biases.
	params []float64
	nw     int
}

// trainScratch is the working memory of one training or forward pass.
type trainScratch struct {
	rng   *rand.Rand
	vel   []float64 // momentum buffers, laid out like flatNet.params
	act   []float64 // activations of every layer in order, input first
	delta []float64 // dE/dz per unit, laid out like act
	order []int     // sample visiting order of the current epoch
	wave  []float64 // sin, cos of each slot of the season, interleaved
}

var trainPool = sync.Pool{New: func() any {
	return &trainScratch{rng: rand.New(rand.NewSource(0))}
}}

// grow returns buf resized to n, reusing its backing array when the
// capacity suffices. The contents are unspecified.
func grow[S ~[]E, E any](buf S, n int) S {
	if cap(buf) < n {
		return make(S, n)
	}
	return buf[:n]
}

// reset shapes the network as in -> hidden... -> 1 and draws
// Xavier-style initial weights from rng, layer by layer; biases start
// at zero. A network already of that shape reuses its buffers.
func (n *flatNet) reset(in int, hidden []int, rng *rand.Rand) {
	n.sizes = append(append(append(n.sizes[:0], in), hidden...), 1)
	n.nw = 0
	units := 0
	for l, out := range n.sizes[1:] {
		n.nw += n.sizes[l] * out
		units += out
	}
	n.params = grow(n.params, n.nw+units)
	w := n.params[:n.nw]
	for l, out := range n.sizes[1:] {
		in := n.sizes[l]
		scale := math.Sqrt(2.0 / float64(in+out))
		for i := range w[:in*out] {
			w[i] = rng.NormFloat64() * scale
		}
		w = w[in*out:]
	}
	clear(n.params[n.nw:])
}

// units returns the number of activations a pass over the network
// produces, the input layer included.
func (n *flatNet) units() int { return len(n.params) - n.nw + n.sizes[0] }

// forward runs the network on the input in act[:sizes[0]], leaving
// every layer's activations behind it in act, and returns the output.
func (n *flatNet) forward(act []float64) float64 {
	w, b := n.params[:n.nw], n.params[n.nw:]
	for l, out := range n.sizes[1:] {
		in := n.sizes[l]
		x, y := act[:in], act[in:in+out]
		hidden := l+2 < len(n.sizes) // the output unit is linear
		for j := range y {
			sum := b[j]
			for i, wv := range w[j*in : (j+1)*in] {
				sum += wv * x[i]
			}
			if hidden {
				sum = math.Tanh(sum)
			}
			y[j] = sum
		}
		w, b, act = w[in*out:], b[out:], act[in:]
	}
	return act[0]
}

// step performs one SGD-with-momentum update towards target on the
// input in s.act[:sizes[0]]. s.vel must match the network's shape.
func (n *flatNet) step(s *trainScratch, target, lr, momentum float64) {
	act, delta := s.act, s.delta
	// dE/dz at the output, for a linear unit under squared error.
	aEnd := n.units()
	delta[aEnd-1] = n.forward(act) - target
	// Backpropagate layer by layer, walking the flat buffers backwards.
	wEnd, bEnd := n.nw, len(n.params)
	for l := len(n.sizes) - 2; l >= 0; l-- {
		in, out := n.sizes[l], n.sizes[l+1]
		aOut := aEnd - out
		x, dIn, dOut := act[aOut-in:aOut], delta[aOut-in:aOut], delta[aOut:aEnd]
		w, vw := n.params[wEnd-in*out:wEnd], s.vel[wEnd-in*out:wEnd]
		b, vb := n.params[bEnd-out:bEnd], s.vel[bEnd-out:bEnd]
		if l > 0 {
			clear(dIn)
		}
		for j, d := range dOut {
			row, vrow := w[j*in:(j+1)*in], vw[j*in:(j+1)*in]
			if l > 0 {
				for i, wv := range row {
					dIn[i] += wv * d
				}
			}
			x, vrow := x[:len(row)], vrow[:len(row)]
			for i, a := range x {
				g := d * a
				vrow[i] = momentum*vrow[i] - lr*g
				row[i] += vrow[i]
			}
			vb[j] = momentum*vb[j] - lr*d
			b[j] += vb[j]
		}
		if l > 0 {
			// Apply tanh's derivative at the hidden activations.
			for i, a := range x {
				dIn[i] *= 1 - a*a
			}
		}
		aEnd, wEnd, bEnd = aOut, wEnd-in*out, bEnd-out
	}
}
