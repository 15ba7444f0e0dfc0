package metrics

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "count", "ratio")
	tb.AddRow("alpha", 42, 0.5)
	tb.AddRow("b", 7, 1.25)
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Errorf("missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	// Columns aligned: "count" column starts at the same offset in both rows.
	hdr := lines[1]
	if !strings.HasPrefix(hdr, "name") {
		t.Errorf("header misaligned: %q", hdr)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(3.0)
	tb.AddRow(0.12345)
	tb.AddRow(1e-9)
	out := tb.String()
	foundPlain3 := false
	for _, line := range strings.Split(out, "\n") {
		if strings.TrimSpace(line) == "3" {
			foundPlain3 = true
		}
	}
	if !foundPlain3 {
		t.Errorf("integral float not compacted:\n%s", out)
	}
	if !strings.Contains(out, "0.123") {
		t.Errorf("fraction not rounded:\n%s", out)
	}
	if !strings.Contains(out, "1.000e-09") {
		t.Errorf("tiny value not scientific:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `q"z`)
	tb.AddRow("plain", 5)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "a,b\n\"x,y\",\"q\"\"z\"\nplain,5\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestPlot(t *testing.T) {
	var sb strings.Builder
	err := Plot(&sb, "fig", "iteration", []Series{
		{Name: "ndp", Values: []float64{1, 2, 4}},
		{Name: "no-ndp", Values: []float64{4, 4, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig", "ndp", "no-ndp", "####"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestPlotEmpty(t *testing.T) {
	var sb strings.Builder
	if err := Plot(&sb, "empty", "x", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Error("title missing")
	}
}

func TestPlotAllZeroValues(t *testing.T) {
	var sb strings.Builder
	if err := Plot(&sb, "zeros", "x", []Series{{Name: "s", Values: []float64{0, 0}}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "[  0]") {
		t.Errorf("plot missing rows:\n%s", sb.String())
	}
}

// TestRenderMarkdownTableGolden pins the report's table rendering byte
// for byte on a hand-built table, the same discipline as the simulator's
// CSV golden: any format change must show up here as a deliberate
// update, because published reports get diffed.
func TestRenderMarkdownTableGolden(t *testing.T) {
	tbl := NewTable("Table II", "architecture", "bytes", "speedup")
	tbl.AddRow("distributed", int64(1024), 1.0)
	tbl.AddRow("disaggregated-ndp", int64(256), 4.0)
	var got strings.Builder
	if err := tbl.RenderMarkdown(&got); err != nil {
		t.Fatal(err)
	}
	const golden = "| architecture | bytes | speedup |\n" +
		"| --- | --- | --- |\n" +
		"| distributed | 1024 | 1 |\n" +
		"| disaggregated-ndp | 256 | 4 |\n"
	if got.String() != golden {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", got.String(), golden)
	}
}

// TestRenderMarkdownTableQuotedCells pins cells that CSV would quote:
// commas and quotes inside a cell reach the markdown as they are.
func TestRenderMarkdownTableQuotedCells(t *testing.T) {
	tbl := NewTable("notes", "dataset", "comment")
	tbl.AddRow("wiki-talk", `hubs, long tail`)
	tbl.AddRow("uk-2005", `the "web" crawl`)
	var got strings.Builder
	if err := tbl.RenderMarkdown(&got); err != nil {
		t.Fatal(err)
	}
	const golden = "| dataset | comment |\n" +
		"| --- | --- |\n" +
		"| wiki-talk | hubs, long tail |\n" +
		"| uk-2005 | the \"web\" crawl |\n"
	if got.String() != golden {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", got.String(), golden)
	}
}

func TestTableEmptyRenders(t *testing.T) {
	tb := NewTable("empty", "a")
	out := tb.String()
	if !strings.Contains(out, "empty") || !strings.Contains(out, "a") {
		t.Errorf("empty table render:\n%s", out)
	}
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "a" {
		t.Errorf("empty CSV = %q", sb.String())
	}
}
