package experiments

import (
	"strings"
	"testing"

	"repro/internal/sample"
)

// sampledOpt keeps sampled-fidelity tests fast: a short capped run with
// a tight sampling regime that still measures several intervals per
// configuration.
var sampledOpt = Options{
	Level:           3,
	MaxInstructions: 400_000,
	Sampling: sample.Config{
		Interval:         2_000,
		Period:           40_000,
		Warmup:           500,
		FunctionalWindow: 8_000,
	},
}

func TestSampledFig2HasIntervals(t *testing.T) {
	o := sampledOpt
	rows := SampledFig2(o)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Intervals < 2 {
			t.Errorf("level %d measured only %d intervals", r.Level, r.Intervals)
		}
		if r.CPI.Mean <= 1 {
			t.Errorf("level %d CPI %.3f: want > 1", r.Level, r.CPI.Mean)
		}
		if r.CPI.Stderr < 0 || r.CPI.CI95Lo > r.CPI.Mean || r.CPI.CI95Hi < r.CPI.Mean {
			t.Errorf("level %d CI [%.3f, %.3f] does not bracket mean %.3f",
				r.Level, r.CPI.CI95Lo, r.CPI.CI95Hi, r.CPI.Mean)
		}
	}
	out := FormatSampledFig2(rows)
	for _, want := range []string{"CPI (95% CI)", "intervals", "±"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSampledRegistry(t *testing.T) {
	for _, id := range ServedIDs(FidelitySampled) {
		if _, err := ByID(id); err != nil {
			t.Errorf("sampled id %q not in the exact registry: %v", id, err)
		}
	}
	// fig2 covers the run path; fig5/fig6/table2 share runSampled and
	// would add dozens of configuration passes each.
	o := sampledOpt
	o.Fidelity = FidelitySampled
	out, err := RunFidelity("fig2", o)
	if err != nil || out == "" {
		t.Errorf("RunFidelity(fig2, sampled): %q, %v", out, err)
	}
	fig3, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if fig3.Serves(FidelitySampled) {
		t.Error("fig3 has no sampled mode")
	}
	if _, err := RunFidelity("fig3", o); err == nil {
		t.Error("RunFidelity(fig3, sampled): want error")
	}
}

func TestRunSampledDeterministic(t *testing.T) {
	o := sampledOpt
	o.Fidelity = FidelitySampled
	a, err := RunFidelity("fig2", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFidelity("fig2", o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two sampled runs render differently:\n%s\nvs:\n%s", a, b)
	}
}

func TestRunFidelityDispatch(t *testing.T) {
	// Exact (both spellings) resolves through the registry.
	for _, f := range []string{"", FidelityExact} {
		o := Options{Level: 2, MaxInstructions: 50_000, Fidelity: f}
		out, err := RunFidelity("table1", o)
		if err != nil || out == "" {
			t.Errorf("RunFidelity(table1, %q): %q, %v", f, out, err)
		}
	}
	// Screening and sampled reach their engines.
	if out, err := RunFidelity("fastsweep", Options{Level: 3, MaxInstructions: 200_000, Fidelity: FidelityScreening}); err != nil || out == "" {
		t.Errorf("RunFidelity screening: %q, %v", out, err)
	}
	o := sampledOpt
	o.Fidelity = FidelitySampled
	if out, err := RunFidelity("fig2", o); err != nil || !strings.Contains(out, "±") {
		t.Errorf("RunFidelity sampled: %q, %v", out, err)
	}
	// Unknown fidelity and unsupported id both error.
	if _, err := RunFidelity("fig2", Options{Fidelity: "bogus"}); err == nil {
		t.Error("RunFidelity(bogus): want error")
	}
	o.Fidelity = FidelitySampled
	if _, err := RunFidelity("fig3", o); err == nil {
		t.Error("RunFidelity(fig3, sampled): want error")
	}
	got := Fidelities()
	if len(got) != 3 || got[0] != FidelityExact {
		t.Errorf("Fidelities() = %v", got)
	}
}

func TestServes(t *testing.T) {
	cases := []struct {
		id, f string
		want  bool
	}{
		{"fig3", FidelityExact, true},
		{"fig3", "", true},
		{"fastsweep", FidelityScreening, true},
		{"fig2", FidelityScreening, false},
		{"fig2", FidelitySampled, true},
		{"fig3", FidelitySampled, false},
		{"fig3", "bogus", false},
	}
	for _, c := range cases {
		e, err := ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Serves(c.f); got != c.want {
			t.Errorf("%s.Serves(%q) = %v, want %v", c.id, c.f, got, c.want)
		}
	}
	e, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(e.Fidelities(), " "); got != "exact screening sampled" {
		t.Errorf("table2 fidelities %q", got)
	}
	if got := strings.Join(ScreeningIDs(), " "); got != "fig6 table2 fig7 fig8 fastsweep" {
		t.Errorf("ScreeningIDs() = %q", got)
	}
	if got := strings.Join(ServedIDs(FidelitySampled), " "); got != "fig2 fig5 fig6 table2" {
		t.Errorf("ServedIDs(sampled) = %q", got)
	}
}
