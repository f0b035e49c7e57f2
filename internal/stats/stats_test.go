package stats

import (
	"strings"
	"testing"
)

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	out := tb.String()
	for _, want := range []string{"title", "name", "value", "alpha", "beta", "2.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableDropsExtraCells(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x", "dropped")
	if strings.Contains(tb.String(), "dropped") {
		t.Error("extra cell was not dropped")
	}
}

func TestBars(t *testing.T) {
	out := Bars("chart", []BarRow{
		{Label: "dcg", Value: 20.7},
		{Label: "plb-ext", Value: 7.8, Note: "paper 11.0"},
		{Label: "zero", Value: 0},
	}, 20)
	if !strings.Contains(out, "chart") || !strings.Contains(out, "paper 11.0") {
		t.Fatalf("bars malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The largest value fills the width; zero draws nothing.
	if !strings.Contains(lines[1], strings.Repeat("#", 20)) {
		t.Error("max bar not full width")
	}
	if strings.Contains(lines[3], "#") {
		t.Error("zero bar drew marks")
	}
}
