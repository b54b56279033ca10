package experiments

import (
	"strings"
	"testing"

	"atm/internal/trace"
)

// smallOpts keeps figure tests fast; every figure function must still
// produce structurally complete results at this scale.
var smallOpts = Options{Boxes: 25, Seed: 3, Days: 6, SamplesPerDay: 32}

func TestFig1(t *testing.T) {
	r, err := Fig1(smallOpts)
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	if len(r.VMIDs) != 4 || len(r.Usage) != 4 {
		t.Fatalf("want 4 VMs, got %d/%d", len(r.VMIDs), len(r.Usage))
	}
	if r.MaxPairCorrelation < 0.3 {
		t.Errorf("picked box correlation = %v; generator should offer a strongly-dependent box", r.MaxPairCorrelation)
	}
	tbl := r.Render()
	if !strings.Contains(tbl.String(), r.BoxID) {
		t.Error("table does not name the box")
	}
}

func TestFig2(t *testing.T) {
	r, err := Fig2(smallOpts)
	if err != nil {
		t.Fatalf("Fig2: %v", err)
	}
	if len(r.Cells) != 6 {
		t.Fatalf("cells = %d, want 6 (3 thresholds x 2 resources)", len(r.Cells))
	}
	// Monotonicity: higher thresholds cannot produce more tickets.
	byKey := map[string]Fig2Cell{}
	for _, c := range r.Cells {
		byKey[c.Resource.String()+pct(c.Threshold)] = c
	}
	for _, res := range []string{"cpu", "ram"} {
		if byKey[res+"60.0%"].MeanTickets < byKey[res+"80.0%"].MeanTickets {
			t.Errorf("%s tickets increased with threshold", res)
		}
	}
	// Culprit concentration: one to two VMs per box.
	for _, c := range r.Cells {
		if c.MeanCulprits != 0 && (c.MeanCulprits < 1 || c.MeanCulprits > 3) {
			t.Errorf("%v@%v culprits = %v, want ~1-2", c.Resource, c.Threshold, c.MeanCulprits)
		}
	}
	if len(r.Render().Rows) != 6 {
		t.Error("render rows mismatch")
	}
}

func TestFig3(t *testing.T) {
	r, err := Fig3(smallOpts)
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	if len(r.InterPair) == 0 || len(r.IntraCPU) == 0 {
		t.Fatal("empty correlation families")
	}
	// The paper's headline: same-VM CPU-RAM correlation dominates.
	meanOf := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	if meanOf(r.InterPair) <= meanOf(r.IntraCPU) {
		t.Errorf("inter-pair %v <= intra-CPU %v; spatial structure lost",
			meanOf(r.InterPair), meanOf(r.IntraCPU))
	}
	if got := len(r.Render().Rows); got != 4 {
		t.Errorf("render rows = %d, want 4 families", got)
	}
}

func TestFig5(t *testing.T) {
	r, err := Fig5(smallOpts)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	for _, m := range []string{"dtw", "cbc"} {
		if len(r.ClusterCounts[m]) == 0 {
			t.Fatalf("no cluster counts for %s", m)
		}
	}
	// CBC produces more clusters than DTW on average (paper's
	// observation).
	mean := func(v []int) float64 {
		s := 0
		for _, x := range v {
			s += x
		}
		return float64(s) / float64(len(v))
	}
	if mean(r.ClusterCounts["cbc"]) <= mean(r.ClusterCounts["dtw"]) {
		t.Errorf("cbc clusters %v <= dtw %v", mean(r.ClusterCounts["cbc"]), mean(r.ClusterCounts["dtw"]))
	}
	r.Render()
}

func TestFig6(t *testing.T) {
	r, err := Fig6(smallOpts)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(r.Stats) != 4 {
		t.Fatalf("stats = %d, want 4 configs", len(r.Stats))
	}
	meanOf := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	// Stepwise never grows the signature set.
	for _, m := range []string{"dtw", "cbc"} {
		after := meanOf(r.Stats[m+"/stepwise"].Ratios)
		before := meanOf(r.Stats[m+"/clustering"].Ratios)
		if after > before+1e-9 {
			t.Errorf("%s stepwise grew ratio %v -> %v", m, before, after)
		}
	}
	// DTW reduces far more aggressively than CBC (paper Figure 6a).
	if meanOf(r.Stats["dtw/stepwise"].Ratios) >= meanOf(r.Stats["cbc/stepwise"].Ratios) {
		t.Error("DTW should produce a much smaller signature set than CBC")
	}
	r.Render()
}

func TestFig7(t *testing.T) {
	r, err := Fig7(smallOpts)
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(r.Stats) != 6 {
		t.Fatalf("stats = %d, want 6 configs", len(r.Stats))
	}
	meanOf := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	// The paper's key Figure 7 finding: the inter-resource model needs
	// a smaller signature set than either intra model.
	for _, m := range []string{"dtw", "cbc"} {
		inter := meanOf(r.Stats[m+"/inter"].Ratios)
		if inter >= meanOf(r.Stats[m+"/intra-cpu"].Ratios) ||
			inter >= meanOf(r.Stats[m+"/intra-ram"].Ratios) {
			t.Errorf("%s inter ratio %v not below intra ratios", m, inter)
		}
	}
	r.Render()
}

func TestFig8(t *testing.T) {
	r, err := Fig8(smallOpts)
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if len(r.Policies) != 4 {
		t.Fatalf("policies = %d, want 4", len(r.Policies))
	}
	byName := map[string]PolicyReduction{}
	for _, p := range r.Policies {
		byName[p.Policy] = p
	}
	// Figure 8 ordering: ATM beats both baselines on CPU tickets.
	atm := byName["atm"].Mean[trace.CPU]
	if atm < byName["max-min"].Mean[trace.CPU]-0.05 {
		t.Errorf("ATM cpu %v below max-min %v", atm, byName["max-min"].Mean[trace.CPU])
	}
	if atm <= byName["stingy"].Mean[trace.CPU] {
		t.Errorf("ATM cpu %v not above stingy %v", atm, byName["stingy"].Mean[trace.CPU])
	}
	if atm < 0.8 {
		t.Errorf("ATM cpu reduction = %v, want near-complete (paper 95%%)", atm)
	}
	r.Render()
}

// TestFig9And10 runs the full pipeline at a tiny scale; the MLP makes
// it the slowest figure test.
func TestFig9And10(t *testing.T) {
	if testing.Short() {
		t.Skip("full ATM pipeline is slow")
	}
	opts := Options{Boxes: 8, Seed: 5, Days: 6, SamplesPerDay: 32}
	f9, err := Fig9(opts)
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if len(f9.Methods) != 2 {
		t.Fatalf("methods = %d, want 2", len(f9.Methods))
	}
	for _, m := range f9.Methods {
		if len(m.AllMAPE) == 0 {
			t.Fatalf("%s: no error samples", m.Method)
		}
		if m.SignatureRatio <= 0 || m.SignatureRatio > 1 {
			t.Errorf("%s ratio = %v", m.Method, m.SignatureRatio)
		}
	}
	f9.Render()

	f10, err := Fig10(opts, f9)
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	if len(f10.Policies) != 4 {
		t.Fatalf("policies = %d, want 4", len(f10.Policies))
	}
	byName := map[string]PolicyReduction{}
	for _, p := range f10.Policies {
		byName[p.Policy] = p
	}
	// ATM must deliver a solid positive CPU reduction even at this
	// scale.
	if byName["atm-cbc"].Mean[trace.CPU] < 0.2 {
		t.Errorf("atm-cbc cpu reduction = %v, want clearly positive", byName["atm-cbc"].Mean[trace.CPU])
	}
	f10.Render()
}

func TestFig12And13(t *testing.T) {
	f12, err := Fig12(Options{})
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if f12.TicketsStatic < 10 {
		t.Errorf("static tickets = %d; testbed should generate a meaningful count", f12.TicketsStatic)
	}
	if f12.TicketsManaged > f12.TicketsStatic/3 {
		t.Errorf("tickets %d -> %d; want a dramatic reduction (paper: 49 -> 1)",
			f12.TicketsStatic, f12.TicketsManaged)
	}
	f12.Render()

	f13, err := Fig13(Options{}, f12)
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	if len(f13.Apps) != 2 {
		t.Fatalf("apps = %d, want 2", len(f13.Apps))
	}
	for _, a := range f13.Apps {
		if a.TPUTStatic <= 0 || a.RTStatic <= 0 {
			t.Errorf("%s has zero static metrics: %+v", a.App, a)
		}
	}
	byApp := map[string]Fig13App{}
	for _, a := range f13.Apps {
		byApp[a.App] = a
	}
	// The paper's wiki-two story: throughput improves by ~20%.
	w2 := byApp["wiki-two"]
	if w2.TPUTManaged < 1.1*w2.TPUTStatic {
		t.Errorf("wiki-two throughput %v -> %v, want > +10%%", w2.TPUTStatic, w2.TPUTManaged)
	}
	// And wiki-one's response time improves.
	w1 := byApp["wiki-one"]
	if w1.RTManaged > w1.RTStatic {
		t.Errorf("wiki-one RT %v -> %v, want improvement", w1.RTStatic, w1.RTManaged)
	}
	f13.Render()
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "Test",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("note %d", 7)
	out := tbl.String()
	for _, want := range []string{"Test", "====", "a", "bb", "333", "note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Boxes != 200 || o.Seed != 1 || o.Days != 7 || o.SamplesPerDay != 96 {
		t.Errorf("defaults = %+v", o)
	}
	// Explicit values survive.
	o = Options{Boxes: 3, Seed: 9, Days: 2, SamplesPerDay: 12}.withDefaults()
	if o.Boxes != 3 || o.Seed != 9 || o.Days != 2 || o.SamplesPerDay != 12 {
		t.Errorf("explicit = %+v", o)
	}
}

func TestRenderSVGFigures(t *testing.T) {
	f1, err := Fig1(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := Fig3(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Fig8(smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	f12, err := Fig12(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f13, err := Fig13(Options{}, f12)
	if err != nil {
		t.Fatal(err)
	}
	renders := map[string]func() (string, error){
		"fig1":  f1.RenderSVG,
		"fig3":  f3.RenderSVG,
		"fig8":  f8.RenderSVG,
		"fig12": f12.RenderSVG,
		"fig13": f13.RenderSVG,
	}
	for name, render := range renders {
		svg, err := render()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
			t.Errorf("%s: not a complete svg document", name)
		}
	}
}

func TestMethodsComparison(t *testing.T) {
	r, err := Methods(Options{Boxes: 12, Seed: 4, SamplesPerDay: 48})
	if err != nil {
		t.Fatalf("Methods: %v", err)
	}
	for _, name := range []string{"dtw", "cbc", "features"} {
		s := r.Stats[name]
		if s == nil || len(s.Ratios) == 0 {
			t.Fatalf("no stats for %s", name)
		}
		for _, v := range s.Ratios {
			if v <= 0 || v > 1 {
				t.Errorf("%s ratio = %v", name, v)
			}
		}
		if r.Elapsed[name] <= 0 {
			t.Errorf("%s elapsed = %v", name, r.Elapsed[name])
		}
	}
	out := r.Render().String()
	if !strings.Contains(out, "features") {
		t.Error("render missing features row")
	}
}

func TestStability(t *testing.T) {
	r, err := Stability(Options{Boxes: 60, Seed: 2, SamplesPerDay: 48})
	if err != nil {
		t.Fatalf("Stability: %v", err)
	}
	if len(r.Tests) != 4 {
		t.Fatalf("tests = %d, want 4", len(r.Tests))
	}
	for name, ks := range r.Tests {
		if ks.PValue < 0.001 {
			t.Errorf("%s p = %v: generator statistics depend on the seed", name, ks.PValue)
		}
	}
	if !strings.Contains(r.Render().String(), "stable") {
		t.Error("render missing verdict")
	}
}

func TestEpsilonSweep(t *testing.T) {
	r, err := Epsilon(Options{Boxes: 20, Seed: 6, SamplesPerDay: 48}, []float64{0, 0.5})
	if err != nil {
		t.Fatalf("Epsilon: %v", err)
	}
	if len(r.Reduction) != 2 || len(r.Candidates) != 2 {
		t.Fatalf("result shape: %+v", r)
	}
	// Coarser epsilon means fewer candidates.
	if r.Candidates[1] >= r.Candidates[0] {
		t.Errorf("candidates %v did not shrink with epsilon", r.Candidates)
	}
	// Reductions stay strongly positive at both settings.
	for i, red := range r.Reduction {
		if red < 0.5 {
			t.Errorf("eps %v reduction = %v, want > 50%%", r.Epsilons[i], red)
		}
	}
	r.Render()
}
