package main

import "testing"

func TestParseFidelityMix(t *testing.T) {
	mix, err := parseFidelityMix("exact=0.5,screening=0.3,sampled=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 {
		t.Fatalf("got %d terms, want 3", len(mix))
	}
	want := map[string]float64{"exact": 0.5, "screening": 0.3, "sampled": 0.2}
	total := 0.0
	for _, fw := range mix {
		if got := want[fw.fidelity]; got != fw.weight {
			t.Errorf("%s weight %g, want %g", fw.fidelity, fw.weight, got)
		}
		total += fw.weight
	}
	if total != 1 {
		t.Errorf("weights sum to %g, want 1", total)
	}

	// Unnormalized weights renormalize.
	mix, err = parseFidelityMix("exact=3, sampled=1")
	if err != nil {
		t.Fatal(err)
	}
	if mix[0].weight != 0.75 || mix[1].weight != 0.25 {
		t.Errorf("renormalized weights %g/%g, want 0.75/0.25", mix[0].weight, mix[1].weight)
	}

	for _, bad := range []string{
		"",
		"exact",
		"quick=1",
		"exact=0",
		"exact=-1",
		"exact=x",
		"exact=1,exact=1",
	} {
		if _, err := parseFidelityMix(bad); err == nil {
			t.Errorf("parseFidelityMix(%q): want error", bad)
		}
	}
}
