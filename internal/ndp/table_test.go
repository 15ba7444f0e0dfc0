package ndp_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/ndp"
)

// TestTableRendersAllDevices holds the Table I renderer to the catalog:
// every device and every class the catalog holds appears in the rendered
// table, so a device added here cannot be left out of the report.
func TestTableRendersAllDevices(t *testing.T) {
	a, err := experiments.Table1(experiments.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := a.Table.String()
	for _, d := range ndp.Catalog() {
		if !strings.Contains(tbl, d.Name) {
			t.Errorf("table missing %s", d.Name)
		}
		if !strings.Contains(tbl, d.Class.String()) {
			t.Errorf("table missing class %s of %s", d.Class, d.Name)
		}
	}
}
